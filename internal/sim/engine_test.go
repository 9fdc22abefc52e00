package sim

import (
	"math"
	"testing"

	"ahq/internal/machine"
	"ahq/internal/trace"
	"ahq/internal/workload"
)

// soloEngine builds an engine with one LC application alone on the node.
func soloEngine(t *testing.T, name string, load float64, cores int, seed int64) *Engine {
	t.Helper()
	app := workload.MustLC(name)
	spec := machine.DefaultSpec()
	spec.Cores = cores
	e, err := New(Config{
		Spec: spec,
		Seed: seed,
		Apps: []AppConfig{{LC: &app, Load: trace.Constant(load)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// run advances the engine and returns the run-level p95 over the horizon.
func run(e *Engine, warmMs, measureMs float64) float64 {
	for e.NowMs() < warmMs {
		e.RunWindow(500)
	}
	mark := e.MarkRun()
	end := e.NowMs() + measureMs
	for e.NowMs() < end {
		e.RunWindow(500)
	}
	return e.RunP95(e.AppNames()[0], mark)
}

func TestSoloLowLoadMatchesIdealP95(t *testing.T) {
	// At 20% load with ample resources the p95 must approach the
	// calibrated TL_i0 (paper Table II methodology).
	for _, name := range []string{"xapian", "moses", "img-dnn"} {
		app := workload.MustLC(name)
		e := soloEngine(t, name, 0.20, 10, 7)
		p95 := run(e, 3_000, 15_000)
		if rel := math.Abs(p95-app.IdealP95Ms) / app.IdealP95Ms; rel > 0.15 {
			t.Errorf("%s: solo p95 = %.3f, want ~TL_i0 %.3f (rel err %.2f)",
				name, p95, app.IdealP95Ms, rel)
		}
	}
}

func TestSoloKneeNearMaxLoad(t *testing.T) {
	// The latency-load curve must knee at max load: comfortably below
	// target at 60%, and well above it by 130%.
	app := workload.MustLC("xapian")
	low := run(soloEngine(t, "xapian", 0.60, 10, 7), 3_000, 15_000)
	if low > app.QoSTargetMs {
		t.Errorf("p95 at 60%% load = %.2f, exceeds target %.2f", low, app.QoSTargetMs)
	}
	high := run(soloEngine(t, "xapian", 1.30, 10, 7), 3_000, 15_000)
	if high < app.QoSTargetMs*1.3 {
		t.Errorf("p95 at 130%% load = %.2f, expected well past target %.2f", high, app.QoSTargetMs)
	}
}

func TestSoloMoreCoresNeverHurts(t *testing.T) {
	// Hockey-stick family of Fig. 7: p95 at fixed load is non-increasing
	// in core count (up to noise).
	prev := math.Inf(1)
	for _, cores := range []int{1, 2, 4} {
		p95 := run(soloEngine(t, "img-dnn", 0.50, cores, 3), 2_000, 10_000)
		if p95 > prev*1.10 {
			t.Errorf("p95 grew with cores: %d cores -> %.2f (prev %.2f)", cores, p95, prev)
		}
		prev = p95
	}
}

func TestDeterminism(t *testing.T) {
	a := run(soloEngine(t, "xapian", 0.50, 4, 42), 2_000, 8_000)
	b := run(soloEngine(t, "xapian", 0.50, 4, 42), 2_000, 8_000)
	if a != b {
		t.Errorf("same seed, different p95: %g vs %g", a, b)
	}
	c := run(soloEngine(t, "xapian", 0.50, 4, 43), 2_000, 8_000)
	if a == c {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

func TestConfigValidation(t *testing.T) {
	app := workload.MustLC("xapian")
	be := workload.MustBE("stream")
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no apps", Config{Spec: machine.DefaultSpec()}},
		{"bad spec", Config{Spec: machine.Spec{}, Apps: []AppConfig{{BE: &be}}}},
		{"both classes", Config{Spec: machine.DefaultSpec(),
			Apps: []AppConfig{{LC: &app, BE: &be, Load: trace.Constant(0.5)}}}},
		{"neither class", Config{Spec: machine.DefaultSpec(), Apps: []AppConfig{{}}}},
		{"LC without load", Config{Spec: machine.DefaultSpec(), Apps: []AppConfig{{LC: &app}}}},
		{"duplicate names", Config{Spec: machine.DefaultSpec(),
			Apps: []AppConfig{{BE: &be}, {BE: &be}}}},
	}
	for _, c := range cases {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestSetAllocationValidates(t *testing.T) {
	e := soloEngine(t, "xapian", 0.20, 10, 1)
	over := machine.Allocation{Regions: []machine.Region{{
		Name: "shared", Kind: machine.Shared, Cores: 99, Ways: 20, BWUnits: 10,
		Apps: []string{"xapian"},
	}}}
	if err := e.SetAllocation(over); err == nil {
		t.Error("overcommitted allocation accepted")
	}
	// Two shared regions for one app are rejected.
	two := machine.Allocation{Regions: []machine.Region{
		{Name: "s1", Kind: machine.Shared, Cores: 5, Ways: 10, BWUnits: 5, Apps: []string{"xapian"}},
		{Name: "s2", Kind: machine.Shared, Cores: 5, Ways: 10, BWUnits: 5, Apps: []string{"xapian"}},
	}}
	if err := e.SetAllocation(two); err == nil {
		t.Error("app in two shared regions accepted")
	}
}

func TestBEIPCSoloIsCalibrated(t *testing.T) {
	// A BE application alone on the full node must achieve its solo IPC.
	for _, name := range []string{"fluidanimate", "streamcluster"} {
		be := workload.MustBE(name)
		e, err := New(Config{Spec: machine.DefaultSpec(), Seed: 1, Apps: []AppConfig{{BE: &be}}})
		if err != nil {
			t.Fatal(err)
		}
		for e.NowMs() < 2_000 {
			e.RunWindow(500)
		}
		mark := e.MarkRun()
		for e.NowMs() < 6_000 {
			e.RunWindow(500)
		}
		got := e.RunIPC(name, mark)
		if rel := math.Abs(got-be.SoloIPC) / be.SoloIPC; rel > 0.05 {
			t.Errorf("%s: solo IPC = %.3f, want %.3f", name, got, be.SoloIPC)
		}
	}
}

func TestStarvedAppReportsQueueAge(t *testing.T) {
	// An LC application with zero shared cores cannot run; the window
	// must report the head-of-line age as a latency lower bound rather
	// than NaN, so controllers still see the violation.
	app := workload.MustLC("xapian")
	be := workload.MustBE("stream")
	e, err := New(Config{
		Spec: machine.DefaultSpec(),
		Seed: 5,
		Apps: []AppConfig{
			{LC: &app, Load: trace.Constant(0.5)},
			{BE: &be},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// All cores to stream; xapian gets one way and no usable cores is
	// invalid, so give it a region with cores but zero... instead: give
	// xapian an isolated region with cores that is then crushed: use
	// 1 core for xapian at 50% load of max -> overload -> ages grow.
	alloc := machine.Allocation{Regions: []machine.Region{
		{Name: "iso:xapian", Kind: machine.Isolated, Cores: 1, Ways: 1, BWUnits: 1, Apps: []string{"xapian"}},
		{Name: "iso:stream", Kind: machine.Isolated, Cores: 9, Ways: 19, BWUnits: 9, Apps: []string{"stream"}},
	}}
	if err := e.SetAllocation(alloc); err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 10; i++ {
		ws := e.RunWindow(500)
		last = ws[0].P95Ms
	}
	if math.IsNaN(last) {
		t.Fatal("overloaded app reported NaN p95")
	}
	if last < 10 {
		t.Errorf("overloaded p95 = %.2f ms, expected large backlog latency", last)
	}
}

func TestDropsUnderOverload(t *testing.T) {
	// Past the client queue cap, the finite connection pool drops
	// arrivals instead of queueing forever.
	e := soloEngine(t, "xapian", 1.30, 1, 9)
	drops, q := 0, 0
	for i := 0; i < 20; i++ {
		for _, w := range e.RunWindow(500) {
			drops += w.Dropped
			q = w.QueueLen
		}
	}
	if drops == 0 {
		t.Error("sustained overload produced no drops")
	}
	if q > workload.MustLC("xapian").ClientQueueCap {
		t.Errorf("queue %d exceeds client cap", q)
	}
}

func TestWindowAccounting(t *testing.T) {
	e := soloEngine(t, "moses", 0.40, 10, 2)
	total, queued := 0, 0
	var offered float64
	for i := 0; i < 40; i++ {
		ws := e.RunWindow(500)
		total += ws[0].Completed + ws[0].Dropped
		offered += ws[0].OfferedQPS * 0.5
		queued = ws[0].QueueLen
	}
	// Everything offered is eventually completed or dropped (modulo the
	// residual queue).
	if math.Abs(float64(total)+float64(queued)-offered) > offered*0.02+5 {
		t.Errorf("conservation: completed+dropped+queued = %d+%d, offered ~ %.0f",
			total, queued, offered)
	}
	// Offered rate tracks the trace: 40% of max load.
	want := 0.4 * workload.MustLC("moses").MaxLoadQPS * 20 // 20 s worth
	if math.Abs(offered-want)/want > 0.1 {
		t.Errorf("offered = %.0f requests, want ~%.0f", offered, want)
	}
}

func TestAppSpecsOrderLCFirst(t *testing.T) {
	lc := workload.MustLC("xapian")
	be := workload.MustBE("stream")
	e, err := New(Config{
		Spec: machine.DefaultSpec(),
		Seed: 1,
		Apps: []AppConfig{
			{BE: &be},
			{LC: &lc, Load: trace.Constant(0.1)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := e.AppSpecs()
	if specs[0].Class != workload.LC || specs[1].Class != workload.BE {
		t.Errorf("AppSpecs order: %v", specs)
	}
}
