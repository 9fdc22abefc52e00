package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestP2FallbackMatchesExactBelowFiveSamples: with fewer than five samples
// the estimator has no markers yet and must return the exact quantile of
// what it has seen — the same value Percentile computes.
func TestP2FallbackMatchesExactBelowFiveSamples(t *testing.T) {
	for _, p := range []float64{0.5, 0.95, 0.99} {
		samples := []float64{7.5, 1.25, 3.0, 9.75}
		est := NewP2(p)
		var seen []float64
		for _, x := range samples {
			est.Add(x)
			seen = append(seen, x)
			want := Percentile(seen, p)
			if got := est.Value(); got != want {
				t.Errorf("p=%.2f after %d samples: fallback %v, exact %v", p, len(seen), got, want)
			}
		}
	}
	if v := NewP2(0.95).Value(); !math.IsNaN(v) {
		t.Errorf("empty estimator returned %v, want NaN", v)
	}
}

// TestP2LongStreamsTrackExactPercentiles compares the streaming estimate
// against the exact percentile over long streams from several shapes —
// uniform, heavy-tailed and bimodal — at the quantiles the controller uses.
func TestP2LongStreamsTrackExactPercentiles(t *testing.T) {
	const n = 50_000
	gens := map[string]func(*rand.Rand) float64{
		"uniform":     func(r *rand.Rand) float64 { return 10 * r.Float64() },
		"exponential": func(r *rand.Rand) float64 { return r.ExpFloat64() * 3 },
		"bimodal": func(r *rand.Rand) float64 {
			if r.Float64() < 0.8 {
				return 1 + 0.1*r.NormFloat64()
			}
			return 20 + 2*r.NormFloat64()
		},
	}
	for name, gen := range gens {
		for _, p := range []float64{0.5, 0.95, 0.99} {
			rng := rand.New(rand.NewSource(1234))
			est := NewP2(p)
			xs := make([]float64, 0, n)
			for i := 0; i < n; i++ {
				x := gen(rng)
				est.Add(x)
				xs = append(xs, x)
			}
			exact := Percentile(xs, p)
			got := est.Value()
			// The P² estimate converges to within a few percent of the
			// exact quantile; the bimodal p50 sits in a dense cluster
			// where relative error is tightest.
			rel := math.Abs(got-exact) / exact
			if rel > 0.08 {
				t.Errorf("%s p=%.2f: P2 %v vs exact %v (rel err %.3f)", name, p, got, exact, rel)
			}
		}
	}
}

// TestP2DuplicateHeavyInputs: latency streams quantised by a coarse clock
// are dominated by repeated values, which drive the marker-update parabola
// toward zero-width cells. The estimator must stay finite, stay inside the
// observed range, and land on (or near) the duplicated value when it is
// the true quantile.
func TestP2DuplicateHeavyInputs(t *testing.T) {
	t.Run("all-identical", func(t *testing.T) {
		est := NewP2(0.95)
		for i := 0; i < 10_000; i++ {
			est.Add(4.25)
		}
		if got := est.Value(); got != 4.25 {
			t.Errorf("constant stream: estimate %v, want 4.25", got)
		}
	})

	t.Run("ninety-percent-duplicates", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		est := NewP2(0.5)
		xs := make([]float64, 0, 40_000)
		for i := 0; i < 40_000; i++ {
			x := 2.0 // the duplicated mode
			if rng.Float64() > 0.9 {
				x = 2 + 8*rng.Float64()
			}
			est.Add(x)
			xs = append(xs, x)
		}
		got := est.Value()
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("duplicate-heavy stream produced %v", got)
		}
		sort.Float64s(xs)
		if got < xs[0] || got > xs[len(xs)-1] {
			t.Fatalf("estimate %v outside observed range [%v, %v]", got, xs[0], xs[len(xs)-1])
		}
		// The true median is exactly the mode; the estimator must sit on
		// top of it (the dense cell pins the middle marker).
		if math.Abs(got-2.0) > 0.05 {
			t.Errorf("median of 90%%-duplicate stream estimated %v, want ~2.0", got)
		}
	})

	t.Run("two-values", func(t *testing.T) {
		est := NewP2(0.95)
		for i := 0; i < 20_000; i++ {
			x := 1.0
			if i%10 == 9 {
				x = 5.0
			}
			est.Add(x)
		}
		got := est.Value()
		if got < 1 || got > 5 {
			t.Errorf("two-value stream estimate %v escaped [1, 5]", got)
		}
	})
}

// TestPercentileInPlaceMatchesSortedReference pins the selection path
// against the sort-based reference bit for bit: both surface exact order
// statistics, so interpolation sees identical inputs.
func TestPercentileInPlaceMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(400)
		if trial%2 == 1 {
			n += selectSampleMin + rng.Intn(3000) // the sampling branch
		}
		xs := make([]float64, n)
		for i := range xs {
			switch trial % 3 {
			case 0:
				xs[i] = rng.NormFloat64()
			case 1: // duplicate-heavy
				xs[i] = float64(rng.Intn(5))
			default:
				xs[i] = rng.ExpFloat64()
			}
		}
		for _, p := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
			work := append([]float64(nil), xs...)
			got := PercentileInPlace(work, p)
			ref := append([]float64(nil), xs...)
			sort.Float64s(ref)
			want := PercentileSorted(ref, p)
			if got != want {
				t.Fatalf("trial %d n=%d p=%v: selection %v vs sorted %v", trial, n, p, got, want)
			}
		}
	}
}
