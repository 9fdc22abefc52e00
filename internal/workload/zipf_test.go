package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTermMixValidation(t *testing.T) {
	if _, err := NewTermMix(1, 1.2, 2); err == nil {
		t.Error("1 term accepted")
	}
	if _, err := NewTermMix(100, 1.0, 2); err == nil {
		t.Error("skew 1.0 accepted")
	}
	if _, err := NewTermMix(100, 1.2, 0.5); err == nil {
		t.Error("cold factor < 1 accepted")
	}
}

func TestTermMixMeanIsOne(t *testing.T) {
	f := func(nRaw, skewRaw, coldRaw uint16) bool {
		n := int(nRaw)%5000 + 2
		skew := 1.01 + float64(skewRaw%200)/100
		cold := 1 + float64(coldRaw%500)/100
		m, err := NewTermMix(n, skew, cold)
		if err != nil {
			return false
		}
		mean, prev := 0.0, 0.0
		for r, c := range m.cdf {
			mean += (c - prev) * m.factors[r]
			prev = c
		}
		return math.Abs(mean-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTermMixFactorsMonotone(t *testing.T) {
	m, err := NewTermMix(1000, 1.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for r, f := range m.factors {
		if f < prev {
			t.Fatalf("factor not monotone at rank %d: %g < %g", r, f, prev)
		}
		prev = f
	}
	// Cold/hot ratio matches the configured factor.
	if ratio := m.factors[999] / m.factors[0]; math.Abs(ratio-3) > 1e-9 {
		t.Errorf("cold/hot ratio = %g, want 3", ratio)
	}
}

func TestTermMixSampleStatistics(t *testing.T) {
	m, err := NewTermMix(10_000, 1.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	sum := 0.0
	const n = 200_000
	hot := 0
	for i := 0; i < n; i++ {
		f := m.Sample(rng.Float64())
		sum += f
		if f == m.factors[0] {
			hot++
		}
	}
	if mean := sum / n; math.Abs(mean-1) > 0.01 {
		t.Errorf("empirical mean factor = %g, want ~1", mean)
	}
	// The most popular term must dominate: with skew 1.2 its probability
	// is far above uniform (1e-4).
	if frac := float64(hot) / n; frac < 0.05 {
		t.Errorf("hottest term drawn %.4f of the time; Zipf skew missing", frac)
	}
}

func TestFitSigmaPreservesIdealP95(t *testing.T) {
	for _, name := range termMixApps {
		app := MustLC(name)
		if app.Terms == nil {
			t.Fatalf("%s should carry a term mix", name)
		}
		// Monte-Carlo the combined service distribution and check its p95
		// sits on the calibrated TL_i0 while the mean stays on target.
		rng := rand.New(rand.NewSource(7))
		const n = 100_000
		xs := make([]float64, n)
		sum := 0.0
		for i := range xs {
			xs[i] = math.Exp(app.ServiceMu()+app.ServiceSigma*rng.NormFloat64()) * app.Terms.Sample(rng.Float64())
			sum += xs[i]
		}
		if mean := sum / n; math.Abs(mean-app.ServiceMeanMs)/app.ServiceMeanMs > 0.02 {
			t.Errorf("%s: service mean = %g, want %g", name, mean, app.ServiceMeanMs)
		}
		sort.Float64s(xs)
		p95 := xs[int(0.95*float64(len(xs)))]
		if math.Abs(p95-app.IdealP95Ms)/app.IdealP95Ms > 0.05 {
			t.Errorf("%s: combined service p95 = %g, want ~%g", name, p95, app.IdealP95Ms)
		}
	}
}

// TestGuidedRankMatchesLowerBound pins the guide table: for every catalog
// mix, the guided rank equals an unguided lower-bound search of the whole
// cdf (the smallest rank whose cumulative probability reaches u) on 10^6
// seeded draws and on every bucket boundary j/guideBuckets and its
// neighbouring floats, where an off-by-one bucket would show first.
func TestGuidedRankMatchesLowerBound(t *testing.T) {
	for _, name := range termMixApps {
		m := MustLC(name).Terms
		check := func(u float64) {
			if u < 0 || u >= 1 {
				return
			}
			if got, want := m.rank(u), sort.SearchFloat64s(m.cdf, u); got != want {
				t.Fatalf("%s: rank(%v) = %d, lower bound %d", name, u, got, want)
			}
		}
		for j := 0; j <= guideBuckets; j++ {
			b := float64(j) / guideBuckets
			check(math.Nextafter(b, 0))
			check(b)
			check(math.Nextafter(b, 1))
		}
		rng := rand.New(rand.NewSource(int64(len(name))))
		for i := 0; i < 1_000_000; i++ {
			check(rng.Float64())
		}
	}
}

func BenchmarkTermMixSample(b *testing.B) {
	for _, name := range termMixApps {
		m := MustLC(name).Terms
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			sum := 0.0
			for i := 0; i < b.N; i++ {
				sum += m.Sample(rng.Float64())
			}
			if sum < 0 {
				b.Fatal(sum)
			}
		})
	}
}
