package core

import (
	"math"
	"testing"

	"ahq/internal/machine"
	"ahq/internal/sched"
	"ahq/internal/sched/arq"
	"ahq/internal/sched/parties"
	"ahq/internal/sched/static"
	"ahq/internal/sim"
	"ahq/internal/trace"
	"ahq/internal/workload"
)

func testEngine(t *testing.T, seed int64) *sim.Engine {
	t.Helper()
	x, m := workload.MustLC("xapian"), workload.MustLC("moses")
	b := workload.MustBE("fluidanimate")
	e, err := sim.New(sim.Config{
		Spec: machine.DefaultSpec(),
		Seed: seed,
		Apps: []sim.AppConfig{
			{LC: &x, Load: trace.Constant(0.3)},
			{LC: &m, Load: trace.Constant(0.2)},
			{BE: &b},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func quickOpts() Options {
	return Options{EpochMs: 500, WarmupMs: 2_000, DurationMs: 6_000}
}

func TestRunProducesCoherentResult(t *testing.T) {
	res, err := Run(testEngine(t, 1), static.Unmanaged{}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "unmanaged" {
		t.Errorf("Strategy = %q", res.Strategy)
	}
	if res.Epochs != 12 {
		t.Errorf("Epochs = %d, want 12 (6 s / 500 ms)", res.Epochs)
	}
	if len(res.Apps) != 3 {
		t.Fatalf("Apps = %d", len(res.Apps))
	}
	// LC apps first.
	if res.Apps[0].Spec.Class != workload.LC || res.Apps[2].Spec.Class != workload.BE {
		t.Error("app order not LC-first")
	}
	for _, a := range res.Apps[:2] {
		if math.IsNaN(a.MeanP95Ms) || a.MeanP95Ms <= 0 {
			t.Errorf("%s: MeanP95Ms = %g", a.Spec.Name, a.MeanP95Ms)
		}
		if a.Completed == 0 {
			t.Errorf("%s: no completions", a.Spec.Name)
		}
	}
	if res.Apps[2].MeanIPC <= 0 {
		t.Errorf("BE IPC = %g", res.Apps[2].MeanIPC)
	}
	for _, v := range []float64{res.MeanELC, res.MeanEBE, res.MeanES, res.RunELC, res.RunEBE, res.RunES} {
		if math.IsNaN(v) || v < 0 || v > 1 {
			t.Errorf("entropy out of range: %g", v)
		}
	}
	if res.Yield < 0 || res.Yield > 1 {
		t.Errorf("Yield = %g", res.Yield)
	}
	if res.Timeline != nil {
		t.Error("timeline recorded without RecordTimeline")
	}
}

func TestRunTimeline(t *testing.T) {
	opts := quickOpts()
	opts.RecordTimeline = true
	res, err := Run(testEngine(t, 2), arq.Default(), opts)
	if err != nil {
		t.Fatal(err)
	}
	wantEpochs := int((opts.WarmupMs + opts.DurationMs) / opts.EpochMs)
	if len(res.Timeline) != wantEpochs {
		t.Fatalf("timeline has %d records, want %d", len(res.Timeline), wantEpochs)
	}
	prev := 0.0
	for _, rec := range res.Timeline {
		if rec.TimeMs <= prev {
			t.Fatal("timeline not monotone in time")
		}
		prev = rec.TimeMs
		if len(rec.Apps) != 3 {
			t.Fatalf("timeline record has %d apps", len(rec.Apps))
		}
		if err := rec.Allocation.Validate(machine.DefaultSpec(),
			[]string{"xapian", "moses", "fluidanimate"}); err != nil {
			t.Fatalf("timeline allocation invalid: %v", err)
		}
	}
}

func TestTimelineEndsAtFinalAllocation(t *testing.T) {
	opts := quickOpts()
	opts.RecordTimeline = true
	res, err := Run(testEngine(t, 4), arq.Default(), opts)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Timeline[len(res.Timeline)-1].Allocation
	if !last.Equal(res.FinalAllocation) {
		t.Errorf("timeline tail %s != final %s", last, res.FinalAllocation)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(testEngine(t, 7), parties.Default(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testEngine(t, 7), parties.Default(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanES != b.MeanES || a.Adjustments != b.Adjustments {
		t.Errorf("non-deterministic: ES %g vs %g, adj %d vs %d",
			a.MeanES, b.MeanES, a.Adjustments, b.Adjustments)
	}
}

func TestViolationAccounting(t *testing.T) {
	res, err := Run(testEngine(t, 3), static.Unmanaged{}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, a := range res.Apps {
		sum += a.ViolationEpochs
	}
	if sum != res.TotalViolationEpochs {
		t.Errorf("per-app violations %d != total %d", sum, res.TotalViolationEpochs)
	}
}

func TestSamplesFromWindows(t *testing.T) {
	apps := []sched.AppWindow{
		{Spec: sched.AppSpec{Name: "x", Class: workload.LC, IdealP95Ms: 1, QoSTargetMs: 2}, P95Ms: 1.5},
		{Spec: sched.AppSpec{Name: "idle", Class: workload.LC, IdealP95Ms: 1, QoSTargetMs: 2}, P95Ms: math.NaN()},
		{Spec: sched.AppSpec{Name: "b", Class: workload.BE, SoloIPC: 2}, IPC: 1},
		{Spec: sched.AppSpec{Name: "starved", Class: workload.BE, SoloIPC: 2}, IPC: 0},
	}
	lc, be := samplesFromWindows(apps)
	if len(lc) != 1 || lc[0].Name != "x" {
		t.Errorf("lc samples = %v", lc)
	}
	if len(be) != 2 {
		t.Fatalf("be samples = %v", be)
	}
	// The starved BE app is clamped, not dropped: its slowdown saturates
	// E_BE instead of erroring.
	if be[1].MeasuredIPC <= 0 {
		t.Error("starved BE sample not clamped")
	}
}

// A starved LC application with no usable latency observation must emit a
// saturated sample (measured latency far above target), not disappear from
// E_LC — dropping it understates the worst interference case.
func TestSamplesFromWindowsStarvedLC(t *testing.T) {
	spec := sched.AppSpec{Name: "s", Class: workload.LC, IdealP95Ms: 1, QoSTargetMs: 2}
	cases := []struct {
		label string
		win   sched.AppWindow
	}{
		{"NaN p95, queued backlog", sched.AppWindow{Spec: spec, P95Ms: math.NaN(), QueueLen: 3}},
		{"zero p95, queued backlog", sched.AppWindow{Spec: spec, P95Ms: 0, QueueLen: 1}},
		{"NaN p95, all dropped", sched.AppWindow{Spec: spec, P95Ms: math.NaN(), Dropped: 7}},
	}
	for _, c := range cases {
		lc, _ := samplesFromWindows([]sched.AppWindow{c.win})
		if len(lc) != 1 {
			t.Errorf("%s: starved LC app dropped (samples = %v)", c.label, lc)
			continue
		}
		s := lc[0]
		if err := s.Validate(); err != nil {
			t.Errorf("%s: saturated sample invalid: %v", c.label, err)
		}
		if s.MeasuredMs <= s.TargetMs {
			t.Errorf("%s: measured %.3g not above target %.3g", c.label, s.MeasuredMs, s.TargetMs)
		}
		if q := s.Intolerable(); q < 0.99 {
			t.Errorf("%s: Q_i = %.3g, want saturated (~1)", c.label, q)
		}
	}
	// A genuinely idle application (nothing offered, nothing queued) still
	// yields no sample.
	idle := sched.AppWindow{Spec: spec, P95Ms: math.NaN()}
	if lc, _ := samplesFromWindows([]sched.AppWindow{idle}); len(lc) != 0 {
		t.Errorf("idle LC app produced samples: %v", lc)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.EpochMs != 500 || o.WarmupMs != 10000 || o.DurationMs != 20000 || o.RI != 0.8 {
		t.Errorf("defaults = %+v", o)
	}
	// Negative warm-up means "measure from the start".
	o = Options{WarmupMs: -1}.withDefaults()
	if o.WarmupMs != 0 {
		t.Errorf("WarmupMs = %g, want 0", o.WarmupMs)
	}
}
