package workload

import (
	"fmt"
	"math"
)

// TermMix models the request-content skew of the paper's load generators:
// Xapian queries are drawn from a Zipfian distribution over index terms,
// and Moses translates randomly chosen corpus snippets. Popular terms hit
// warm index structures and finish faster; rare terms walk cold postings
// and take longer. The mix multiplies each request's sampled service demand
// by a rank-dependent factor whose mean is exactly 1, so the calibrated
// mean service time (and therefore max load) is preserved while the tail
// gains content-dependent weight.
type TermMix struct {
	// Terms is the vocabulary size.
	Terms int
	// Skew is the Zipf exponent s (> 1); the paper's generators use a
	// Zipfian query mix, conventionally s in (1, 2].
	Skew float64
	// ColdFactor is the service multiplier of the rarest term relative
	// to the most popular one (>= 1).
	ColdFactor float64

	factors []float64 // per-rank multiplier, normalised to mean 1
	cdf     []float64 // cumulative rank probabilities
	// guide[j] is the smallest rank whose cdf reaches j/guideBuckets; a
	// draw u then needs only a binary search of [guide[j], guide[j+1]]
	// with j = floor(u*guideBuckets). The comparisons are the same ones
	// the unguided search would make, so the sampled rank is identical —
	// the guide only shrinks the range they run over.
	guide []int32
}

// guideBuckets sizes the Sample guide table. A power of two keeps
// u*guideBuckets exact (the multiplication only shifts the exponent), so
// bucket membership is exact float arithmetic, not an approximation.
// 4096 buckets keep the search short even for masstree's 100k-term
// vocabulary, at 16 KB of table per mix.
const guideBuckets = 4096

// NewTermMix builds and normalises a term mix.
func NewTermMix(terms int, skew, coldFactor float64) (*TermMix, error) {
	if terms < 2 {
		return nil, fmt.Errorf("workload: term mix needs at least 2 terms, got %d", terms)
	}
	if skew <= 1 {
		return nil, fmt.Errorf("workload: zipf skew %.3g must exceed 1", skew)
	}
	if coldFactor < 1 {
		return nil, fmt.Errorf("workload: cold factor %.3g must be >= 1", coldFactor)
	}
	m := &TermMix{Terms: terms, Skew: skew, ColdFactor: coldFactor}

	// Rank probabilities p(r) ~ 1/r^s and raw factors rising
	// logarithmically from 1 (hot) to ColdFactor (cold).
	probs := make([]float64, terms)
	raw := make([]float64, terms)
	var z float64
	logTerms := math.Log(float64(terms))
	for r := 0; r < terms; r++ {
		probs[r] = 1 / math.Pow(float64(r+1), skew)
		z += probs[r]
		raw[r] = 1 + (coldFactor-1)*math.Log(float64(r+1))/logTerms
	}
	mean := 0.0
	for r := 0; r < terms; r++ {
		probs[r] /= z
		mean += probs[r] * raw[r]
	}
	m.factors = make([]float64, terms)
	m.cdf = make([]float64, terms)
	cum := 0.0
	for r := 0; r < terms; r++ {
		m.factors[r] = raw[r] / mean
		cum += probs[r]
		m.cdf[r] = cum
	}
	m.cdf[terms-1] = 1 // guard against rounding

	// Build the sampling guide: for each bucket boundary j/guideBuckets,
	// the first rank whose cumulative probability reaches it.
	m.guide = make([]int32, guideBuckets+1)
	r := int32(0)
	for j := 0; j <= guideBuckets; j++ {
		bound := float64(j) / guideBuckets
		for int(r) < terms-1 && m.cdf[r] < bound {
			r++
		}
		m.guide[j] = r
	}
	return m, nil
}

// Sample returns the service-demand multiplier of the term rank that the
// uniform draw u in [0, 1) selects: the smallest rank whose cumulative
// probability reaches u. The guide table narrows the binary search to a
// handful of ranks, and a Zipfian's head-heavy buckets usually pin it
// outright. Taking the draw instead of a generator lets callers use any
// uniform stream.
func (m *TermMix) Sample(u float64) float64 {
	return m.factors[m.rank(u)]
}

// rank returns the smallest rank whose cumulative probability reaches u,
// for u in [0, 1).
func (m *TermMix) rank(u float64) int {
	j := int(u * guideBuckets) // exact: u in [0,1), power-of-two scale
	lo, hi := int(m.guide[j]), int(m.guide[j+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if m.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
