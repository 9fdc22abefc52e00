package metrics

import (
	"math"
	"sort"
	"testing"
)

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
