// Package metrics provides the measurement substrate of the reproduction:
// tail-latency percentile estimation (exact and streaming), sliding
// measurement windows, and IPC accounting. It stands in for the performance
// counters and the Tailbench latency harness of the paper's testbed.
package metrics

import "math"

// Percentile returns the p-quantile (p in [0,1]) of the samples using linear
// interpolation between closest ranks (the same convention as numpy's
// default). It returns NaN for an empty slice. The input is not modified.
//
// The quantile is found by quickselect rather than a full sort: the two
// closest-rank order statistics are exact sample values whichever algorithm
// surfaces them, so the result is bit-identical to sorting first, at O(n)
// instead of O(n log n) — run-level latency streams reach tens of thousands
// of samples.
func Percentile(samples []float64, p float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return samples[0]
	}
	work := append([]float64(nil), samples...)
	return PercentileInPlace(work, p)
}

// PercentileInPlace is Percentile over a scratch slice the caller allows to
// be reordered (it is partially partitioned, not sorted, on return).
func PercentileInPlace(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 || p <= 0 {
		m := xs[0]
		for _, v := range xs[1:] {
			if v < m {
				m = v
			}
		}
		return m
	}
	if p >= 1 {
		return Max(xs)
	}
	rank := p * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	selectFloat(xs, lo)
	v := xs[lo]
	if lo == hi {
		return v
	}
	// The next order statistic is the minimum of the suffix quickselect
	// left above position lo.
	w := xs[lo+1]
	for _, x := range xs[lo+2:] {
		if x < w {
			w = x
		}
	}
	frac := rank - float64(lo)
	return v*(1-frac) + w*frac
}

// OrderStat returns the k-th smallest element of xs (k counted from 0),
// reordering xs in place: on return xs[k] holds it, everything before it is
// no larger and everything after it no smaller. The k-th order statistic is
// one value whichever algorithm surfaces it, so the result equals sorting
// a copy and indexing it at k. It panics unless 0 <= k < len(xs).
func OrderStat(xs []float64, k int) float64 {
	selectFloat(xs, k)
	return xs[k]
}

// selectFloat partially sorts xs so that xs[k] holds the k-th smallest
// element, everything before it is no larger and everything after it no
// smaller (Hoare quickselect with a median-of-three pivot; small ranges
// finish by insertion sort).
func selectFloat(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for {
		if hi-lo < 16 {
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && xs[j] < xs[j-1]; j-- {
					xs[j], xs[j-1] = xs[j-1], xs[j]
				}
			}
			return
		}
		p := median3(xs[lo], xs[(lo+hi)/2], xs[hi])
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for xs[j] > p {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// PercentileSorted is like Percentile but requires the input to be sorted
// ascending and does not copy it.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := p * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// P95 returns the 95th-percentile of the samples; the paper uses p95 as its
// tail-latency metric throughout.
func P95(samples []float64) float64 { return Percentile(samples, 0.95) }

// Mean returns the arithmetic mean, or NaN for an empty slice.
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// Max returns the maximum, or NaN for an empty slice.
func Max(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	m := samples[0]
	for _, v := range samples[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
