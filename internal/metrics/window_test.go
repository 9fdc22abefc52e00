package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTailStats(t *testing.T) {
	lat := []float64{5, 1, 3, 2, 4}
	st := TailStats(lat, 2)
	if st.Completed != 5 || st.Dropped != 2 {
		t.Errorf("Completed=%d Dropped=%d", st.Completed, st.Dropped)
	}
	if st.Mean != 3 {
		t.Errorf("Mean=%g", st.Mean)
	}
	if st.P95 < 4.5 || st.P95 > 5 {
		t.Errorf("P95 = %g", st.P95)
	}
	// The selection reorders in place but keeps the multiset.
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	for i, v := range []float64{1, 2, 3, 4, 5} {
		if sorted[i] != v {
			t.Fatalf("multiset changed: %v", lat)
		}
	}
	empty := TailStats(nil, 3)
	if empty.Completed != 0 || empty.Dropped != 3 || !math.IsNaN(empty.P95) || !math.IsNaN(empty.Mean) {
		t.Errorf("empty window: %+v", empty)
	}
}

// TestTailStatsMatchesSortedReference pins TailStats bit for bit against a
// sorted copy (p95) and an observation-order sum (mean).
func TestTailStatsMatchesSortedReference(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%2000 + 1
		xs := make([]float64, n)
		sum := 0.0
		for i := range xs {
			xs[i] = rng.ExpFloat64() * 10
			sum += xs[i]
		}
		st := TailStats(append([]float64(nil), xs...), 0)
		sort.Float64s(xs)
		return st.P95 == PercentileSorted(xs, 0.95) && st.Mean == sum/float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWorkWindow(t *testing.T) {
	var w WorkWindow
	w.Add(1.5)
	w.Add(2.5)
	if got := w.Snapshot(); got != 4 {
		t.Errorf("Snapshot = %g", got)
	}
	if got := w.Snapshot(); got != 0 {
		t.Errorf("second Snapshot = %g, want 0 (reset)", got)
	}
}
