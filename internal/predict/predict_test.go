package predict

import (
	"errors"
	"math"
	"testing"

	"ahq/internal/machine"
	"ahq/internal/sim"
	"ahq/internal/trace"
	"ahq/internal/workload"
)

// fullShare is the profiling configuration: all cores, all ways, no
// bandwidth contention.
func fullShare() Share {
	return Share{Cores: 10, Ways: 20, BWSatisfaction: 1, RefWays: 20}
}

func TestSlowdownAtReferenceIsOne(t *testing.T) {
	for _, name := range workload.LCNames() {
		app := workload.MustLC(name)
		if got := Slowdown(app, fullShare()); math.Abs(got-1) > 1e-9 {
			t.Errorf("%s: reference slowdown = %g, want 1", name, got)
		}
	}
}

func TestSlowdownGrowsAsResourcesShrink(t *testing.T) {
	app := workload.MustLC("xapian")
	prev := 0.0
	for _, ways := range []float64{20, 10, 5, 2, 1} {
		s := Slowdown(app, Share{Cores: 10, Ways: ways, BWSatisfaction: 1})
		if s < prev {
			t.Fatalf("slowdown shrank as ways dropped to %g", ways)
		}
		prev = s
	}
	sat := Slowdown(app, Share{Cores: 10, Ways: 20, BWSatisfaction: 0.5})
	if sat <= 1 {
		t.Errorf("bandwidth starvation slowdown = %g, want > 1", sat)
	}
}

func TestP95LowLoadApproachesIdeal(t *testing.T) {
	for _, name := range []string{"xapian", "moses", "img-dnn"} {
		app := workload.MustLC(name)
		p95, err := P95(app, fullShare(), 0.10)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rel := math.Abs(p95-app.IdealP95Ms) / app.IdealP95Ms; rel > 0.10 {
			t.Errorf("%s: predicted low-load p95 = %.3f, ideal %.3f", name, p95, app.IdealP95Ms)
		}
	}
}

func TestP95MonotoneInLoad(t *testing.T) {
	app := workload.MustLC("xapian")
	prev := 0.0
	for frac := 0.1; frac < 1.1; frac += 0.1 {
		p95, err := P95(app, fullShare(), frac)
		if errors.Is(err, ErrOverloaded) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if p95 < prev-1e-9 {
			t.Fatalf("p95 fell with load at %.0f%%", 100*frac)
		}
		prev = p95
	}
}

func TestOverloadDetection(t *testing.T) {
	app := workload.MustLC("xapian")
	// 100% load on a 0.5-core share is far beyond saturation.
	_, err := P95(app, Share{Cores: 0.5, Ways: 20, BWSatisfaction: 1}, 1.0)
	if !errors.Is(err, ErrOverloaded) {
		t.Errorf("err = %v, want ErrOverloaded", err)
	}
	ok, err := Satisfies(app, Share{Cores: 0.5, Ways: 20, BWSatisfaction: 1}, 1.0)
	if err != nil || ok {
		t.Errorf("Satisfies on overload = (%v, %v)", ok, err)
	}
}

// TestPredictionTracksSimulator is the package's contract: across loads and
// resource shares, the analytic p95 must stay within a factor of two of the
// simulated p95 while both are in the stable regime (the predictor is a
// screening model, not a replacement).
func TestPredictionTracksSimulator(t *testing.T) {
	app := workload.MustLC("xapian")
	cases := []struct {
		cores int
		load  float64
	}{
		{10, 0.2}, {10, 0.5}, {10, 0.7},
		{4, 0.2}, {4, 0.5},
		{2, 0.2},
	}
	for _, c := range cases {
		pred, err := P95(app, Share{Cores: float64(c.cores), Ways: 20, BWSatisfaction: 1}, c.load)
		if err != nil {
			t.Fatalf("cores=%d load=%.1f: %v", c.cores, c.load, err)
		}
		simP95 := simulateSolo(t, c.cores, c.load)
		ratio := pred / simP95
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("cores=%d load=%.1f: predicted %.2f vs simulated %.2f (ratio %.2f)",
				c.cores, c.load, pred, simP95, ratio)
		}
	}
}

func simulateSolo(t *testing.T, cores int, load float64) float64 {
	t.Helper()
	app := workload.MustLC("xapian")
	spec := machine.DefaultSpec()
	spec.Cores = cores
	e, err := sim.New(sim.Config{
		Spec: spec,
		Seed: 8,
		Apps: []sim.AppConfig{{LC: &app, Load: trace.Constant(load)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for e.NowMs() < 3_000 {
		e.RunWindow(500)
	}
	mark := e.MarkRun()
	for e.NowMs() < 15_000 {
		e.RunWindow(500)
	}
	return e.RunP95("xapian", mark)
}

func TestMaxLoadOrdering(t *testing.T) {
	app := workload.MustLC("xapian")
	rich, err := MaxLoad(app, fullShare())
	if err != nil {
		t.Fatal(err)
	}
	poor, err := MaxLoad(app, Share{Cores: 2, Ways: 4, BWSatisfaction: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if poor >= rich {
		t.Errorf("poor share sustains %.2f >= rich share %.2f", poor, rich)
	}
	if rich < 0.7 || rich > 1.3 {
		t.Errorf("full-share max load = %.2f, expected near 1.0 (the calibrated knee)", rich)
	}
}

func TestP95Validation(t *testing.T) {
	if _, err := P95(workload.LCApp{}, fullShare(), 0.5); err == nil {
		t.Error("invalid app accepted")
	}
	if _, err := P95(workload.MustLC("xapian"), fullShare(), -1); err == nil {
		t.Error("negative load accepted")
	}
}
