package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {1, 10}, {0.5, 5.5}, {0.25, 3.25}, {0.95, 9.55},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(p=%.2f) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestPercentileEdges(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("empty slice should give NaN")
	}
	if got := Percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single sample p95 = %g, want 7", got)
	}
	if got := Percentile([]float64{3, 1}, 1.5); got != 3 {
		t.Errorf("p>1 should clamp to max, got %g", got)
	}
	if got := Percentile([]float64{3, 1}, -1); got != 1 {
		t.Errorf("p<0 should clamp to min, got %g", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentileProperties(t *testing.T) {
	f := func(raw []float64, pRaw uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p := float64(pRaw) / 255
		got := Percentile(xs, p)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		// Bounded by the extremes and monotone in p.
		if got < sorted[0] || got > sorted[len(sorted)-1] {
			return false
		}
		return Percentile(xs, p) <= Percentile(xs, math.Min(1, p+0.1))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMeanAndMax(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %g", got)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("empty Mean/Max should be NaN")
	}
	if got := Max([]float64{1, 5, 2}); got != 5 {
		t.Errorf("Max = %g", got)
	}
}

// TestOrderStatPartitions pins selectFloat's contract on ranges long enough
// to take the sampling branch: xs[k] is the k-th value of a sorted copy,
// nothing before it is larger and nothing after it smaller — including on
// sorted, reversed and duplicate-heavy inputs.
func TestOrderStatPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{selectSampleMin + 2, 1000, 5000} {
		for shape := 0; shape < 4; shape++ {
			xs := make([]float64, n)
			for i := range xs {
				switch shape {
				case 0:
					xs[i] = rng.ExpFloat64()
				case 1:
					xs[i] = float64(rng.Intn(3))
				case 2:
					xs[i] = float64(i)
				default:
					xs[i] = float64(n - i)
				}
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, k := range []int{0, 1, n / 3, n / 2, int(0.95 * float64(n-1)), n - 2, n - 1} {
				work := append([]float64(nil), xs...)
				got := OrderStat(work, k)
				if got != sorted[k] {
					t.Fatalf("n=%d shape=%d k=%d: OrderStat %v, sorted %v", n, shape, k, got, sorted[k])
				}
				for i, v := range work {
					if (i < k && v > got) || (i > k && v < got) {
						t.Fatalf("n=%d shape=%d k=%d: xs[%d]=%v breaks the partition around %v", n, shape, k, i, v, got)
					}
				}
			}
		}
	}
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
