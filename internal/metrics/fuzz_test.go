package metrics

import (
	"math"
	"sort"
	"testing"
)

// FuzzP2VsExact feeds arbitrary byte-derived samples to the streaming
// estimator and cross-checks it against the exact percentile: the estimate
// must always lie within the observed range, and within the neighbouring
// exact quantiles for longer streams.
func FuzzP2VsExact(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{255, 0, 255, 0, 255, 0})
	f.Add([]byte{7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		est := NewP2(0.95)
		xs := make([]float64, 0, len(data))
		for _, b := range data {
			v := float64(b) + float64(b%7)/10
			est.Add(v)
			xs = append(xs, v)
		}
		got := est.Value()
		sort.Float64s(xs)
		lo, hi := xs[0], xs[len(xs)-1]
		if math.IsNaN(got) || got < lo-1e-9 || got > hi+1e-9 {
			t.Fatalf("P2 estimate %g outside observed range [%g, %g]", got, lo, hi)
		}
		if len(xs) >= 100 {
			// For long streams the estimate must sit between the p80 and
			// the max — a loose but absolute sanity band.
			p80 := PercentileSorted(xs, 0.80)
			if got < p80-1e-9 {
				t.Fatalf("P2 p95 estimate %g below exact p80 %g (n=%d)", got, p80, len(xs))
			}
		}
	})
}

// FuzzPercentile checks ordering and range invariants of the exact
// percentile under arbitrary inputs.
func FuzzPercentile(f *testing.F) {
	f.Add([]byte{10, 20, 30}, float64(0.5))
	f.Add([]byte{0}, float64(0.95))
	f.Fuzz(func(t *testing.T, data []byte, p float64) {
		if len(data) == 0 || math.IsNaN(p) {
			return
		}
		xs := make([]float64, len(data))
		for i, b := range data {
			xs[i] = float64(b)
		}
		got := Percentile(xs, p)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		if got < sorted[0]-1e-9 || got > sorted[len(sorted)-1]+1e-9 {
			t.Fatalf("Percentile(%g) = %g outside [%g, %g]", p, got, sorted[0], sorted[len(sorted)-1])
		}
	})
}

// FuzzOrderStat checks that selection is exact: every order statistic
// OrderStat surfaces is bit-identical to the same index of a sorted copy.
// Bytes map onto a small value range, so duplicates are common.
func FuzzOrderStat(f *testing.F) {
	f.Add([]byte{10, 20, 30})
	f.Add([]byte{5, 5, 5, 1, 5, 9, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 2})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float64, len(data))
		for i, b := range data {
			xs[i] = float64(b%64) / 4
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		work := make([]float64, len(xs))
		for k := range xs {
			copy(work, xs)
			if got := OrderStat(work, k); got != sorted[k] {
				t.Fatalf("OrderStat(k=%d) = %g, sorted[k] = %g (n=%d)", k, got, sorted[k], len(xs))
			}
		}
	})
}
