package workload

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestCatalogSigmasPinned pins every calibrated catalog sigma bit for bit,
// so a change to the calibration (the term-mix fit above all) fails here by
// name rather than only as a moved experiment digest.
func TestCatalogSigmasPinned(t *testing.T) {
	want := map[string]float64{
		"xapian":   0x1.93017a06e30ecp-01,
		"moses":    0x1.fc4ac7e32f026p-03,
		"img-dnn":  0x1.2aea9c4bf81a2p-01,
		"masstree": 0x1.19345a805e8c1p-02,
		"sphinx":   0x1.185d836db8532p-01,
		"silo":     0x1.7341e7e4c0d54p-02,
	}
	if len(want) != len(lcCatalog) {
		t.Fatalf("pinned %d sigmas, catalog has %d LC apps", len(want), len(lcCatalog))
	}
	for name, sigma := range want {
		if got := MustLC(name).ServiceSigma; got != sigma {
			t.Errorf("%s: sigma = %x, pinned %x", name, got, sigma)
		}
	}
}

// referenceFitSigma is the straightforward form of FitSigmaWithTerms: a
// fresh calibrationSeed stream and a full sort for every p95 evaluation.
// It skips the error checks; callers pass bracketable inputs only.
func referenceFitSigma(app LCApp) float64 {
	target := app.IdealP95Ms
	p95at := func(sigma float64) float64 {
		rng := rand.New(rand.NewSource(calibrationSeed))
		mu := math.Log(app.ServiceMeanMs) - sigma*sigma/2
		const n = 20000
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Exp(mu+sigma*rng.NormFloat64()) * app.Terms.Sample(rng.Float64())
		}
		sort.Float64s(xs)
		return xs[int(0.95*float64(n))]
	}
	lo, hi := 0.0, app.ServiceSigma
	for p95at(hi) < target && hi < 3 {
		hi *= 1.5
	}
	for iter := 0; iter < 40; iter++ {
		mid := (lo + hi) / 2
		if p95at(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// unfittedCatalogApp builds a catalog LC model with its term mix attached
// but the sigma not yet refitted to it.
func unfittedCatalogApp(tb testing.TB, name string) LCApp {
	tb.Helper()
	s := lcCatalog[name]
	app, err := Calibrate(name, s.threads, s.serviceMeanMs, s.idealP95Ms, s.qosTargetMs, kneeRho)
	if err != nil {
		tb.Fatal(err)
	}
	if s.terms != nil {
		if app.Terms, err = NewTermMix(s.terms.n, s.terms.skew, s.terms.coldFactor); err != nil {
			tb.Fatal(err)
		}
	}
	return app
}

// termMixApps are the catalog entries whose sigma is refitted to a mix.
var termMixApps = []string{"xapian", "moses", "masstree"}

func TestFitSigmaMatchesReference(t *testing.T) {
	check := func(app LCApp) {
		t.Helper()
		want := referenceFitSigma(app)
		if err := FitSigmaWithTerms(&app); err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if app.ServiceSigma != want {
			t.Errorf("%s: sigma = %x, reference %x", app.Name, app.ServiceSigma, want)
		}
	}
	for _, name := range termMixApps {
		check(unfittedCatalogApp(t, name))
	}

	// Seeded random (mean, ideal p95, mix) cases; keep those the fit can
	// bracket, which the reference assumes.
	rng := rand.New(rand.NewSource(1))
	cases := 0
	for tries := 0; cases < 6; tries++ {
		if tries == 50 {
			t.Fatalf("only %d of %d random cases bracketable", cases, tries)
		}
		mean := 0.2 + 5*rng.Float64()
		p95 := mean * (1.3 + 2*rng.Float64())
		app, err := Calibrate("random", 4, mean, p95, 2*p95, kneeRho)
		if err != nil {
			t.Fatal(err)
		}
		terms := 2 + rng.Intn(5000)
		skew := 1.05 + rng.Float64()
		cold := 1 + 2*rng.Float64()
		if app.Terms, err = NewTermMix(terms, skew, cold); err != nil {
			t.Fatal(err)
		}
		if probe := app; FitSigmaWithTerms(&probe) != nil {
			continue
		}
		cases++
		check(app)
	}
}

// TestFitSigmaRejectsUnreachableTail covers a tail no log-normal with the
// given mean can reach (the ratio 5 exceeds exp(1.645^2/2) ~ 3.87): the
// widened bracket never covers the target, and the fit must say so rather
// than return the widened sigma.
func TestFitSigmaRejectsUnreachableTail(t *testing.T) {
	mix, err := NewTermMix(10, 1.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	app := LCApp{Name: "probe", ServiceMeanMs: 1, IdealP95Ms: 5, ServiceSigma: 0.5, Terms: mix}
	err = FitSigmaWithTerms(&app)
	if err == nil {
		t.Fatalf("fit accepted an unreachable p95; sigma = %v", app.ServiceSigma)
	}
	if !strings.Contains(err.Error(), "probe") {
		t.Errorf("error %q does not name the app", err)
	}
	if app.ServiceSigma != 0.5 {
		t.Errorf("failed fit moved sigma to %v", app.ServiceSigma)
	}

	app.ServiceSigma = 0
	if err := FitSigmaWithTerms(&app); err == nil {
		t.Error("fit accepted a zero starting sigma")
	}
}

func BenchmarkFitSigmaWithTerms(b *testing.B) {
	for _, name := range termMixApps {
		app := unfittedCatalogApp(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fit := app
				if err := FitSigmaWithTerms(&fit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
