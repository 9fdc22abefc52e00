package cluster

import (
	"math"
	"testing"

	"ahq/internal/core"
	"ahq/internal/entropy"
	"ahq/internal/machine"
	"ahq/internal/sched"
	"ahq/internal/sched/arq"
	"ahq/internal/sched/static"
	"ahq/internal/sim"
	"ahq/internal/trace"
	"ahq/internal/workload"
)

func lcAt(name string, load float64) sim.AppConfig {
	app := workload.MustLC(name)
	return sim.AppConfig{LC: &app, Load: trace.Constant(load)}
}

func beApp(name string) sim.AppConfig {
	app := workload.MustBE(name)
	return sim.AppConfig{BE: &app}
}

func fleetApps() []sim.AppConfig {
	return []sim.AppConfig{
		lcAt("xapian", 0.5),
		lcAt("moses", 0.2),
		lcAt("img-dnn", 0.2),
		lcAt("silo", 0.2),
		beApp("fluidanimate"),
		beApp("stream"),
	}
}

func quickOpts() core.Options {
	return core.Options{EpochMs: 500, WarmupMs: 2_000, DurationMs: 5_000}
}

func TestEstimateDemand(t *testing.T) {
	x := lcAt("xapian", 0.5)
	// 0.5 * 3400 QPS * 1 ms = 1.7 cores.
	if d := EstimateDemand(x); math.Abs(d-1.7) > 0.05 {
		t.Errorf("xapian demand = %g, want ~1.7", d)
	}
	if d := EstimateDemand(beApp("stream")); math.Abs(d-3) > 1e-9 {
		t.Errorf("stream demand = %g, want 3 (10 threads x elasticity)", d)
	}
	if d := EstimateDemand(sim.AppConfig{}); d != 0 {
		t.Errorf("empty demand = %g", d)
	}
}

func TestPlacementsCoverAllApps(t *testing.T) {
	apps := fleetApps()
	for label, place := range map[string]func() ([][]sim.AppConfig, error){
		"round-robin": func() ([][]sim.AppConfig, error) { return RoundRobin(apps, 2) },
		"pack":        func() ([][]sim.AppConfig, error) { return Pack(apps, 2, 8) },
		"balanced":    func() ([][]sim.AppConfig, error) { return Balanced(apps, 2) },
	} {
		got, err := place()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		total := 0
		for _, node := range got {
			total += len(node)
		}
		if total != len(apps) {
			t.Errorf("%s placed %d of %d apps", label, total, len(apps))
		}
	}
	if _, err := RoundRobin(apps, 0); err == nil {
		t.Error("zero nodes accepted")
	}
}

func TestBalancedBalances(t *testing.T) {
	apps := fleetApps()
	placement, err := Balanced(apps, 2)
	if err != nil {
		t.Fatal(err)
	}
	var loads [2]float64
	for n, node := range placement {
		for _, a := range node {
			loads[n] += EstimateDemand(a)
		}
	}
	// LPT keeps the imbalance below the largest single item.
	if diff := math.Abs(loads[0] - loads[1]); diff > 10 {
		t.Errorf("balanced placement imbalance = %g (%v)", diff, loads)
	}
}

func TestClusterRunAggregates(t *testing.T) {
	placement, err := Balanced(fleetApps(), 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Spec:        machine.DefaultSpec(),
		Seed:        1,
		NewStrategy: func(int) sched.Strategy { return arq.Default() },
		Placement:   placement,
	}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Summaries) != 2 {
		t.Fatalf("got %d node summaries", len(res.Summaries))
	}
	for i, s := range res.Summaries {
		if s.Node != i {
			t.Errorf("summary %d is for node %d; merge order broken", i, s.Node)
		}
		if s.LCApps+s.BEApps != len(placement[i]) {
			t.Errorf("node %d summary counts %d+%d apps, placed %d",
				i, s.LCApps, s.BEApps, len(placement[i]))
		}
		if s.Epochs <= 0 {
			t.Errorf("node %d measured no epochs", i)
		}
	}
	for _, v := range []float64{res.GlobalELC, res.GlobalEBE, res.GlobalES} {
		if math.IsNaN(v) || v < 0 || v > 1 {
			t.Errorf("global entropy out of range: %g", v)
		}
	}
	if !res.YieldDefined {
		t.Error("fleet with LC apps must have a defined yield")
	}
	if res.GlobalYield < 0 || res.GlobalYield > 1 {
		t.Errorf("global yield = %g", res.GlobalYield)
	}
	if res.MeasuredEpochs <= 0 || res.Stats.NodesRun != 2 {
		t.Errorf("fleet counters: epochs %d, nodes run %d", res.MeasuredEpochs, res.Stats.NodesRun)
	}
	if v := res.ViolationRate(); v < 0 || v > 1 {
		t.Errorf("violation rate = %g", v)
	}
}

// coreRuns drives every node of a SeedPerNode fleet directly through
// core.Run, the per-node reading Run's one-phase schedule must reproduce.
func coreRuns(t *testing.T, cfg Config, opts core.Options) []*core.Result {
	t.Helper()
	out := make([]*core.Result, len(cfg.Placement))
	for i, apps := range cfg.Placement {
		engine, err := sim.New(sim.Config{Spec: cfg.Spec, Seed: cfg.Seed + int64(i), Apps: uniquify(apps)})
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = core.Run(engine, cfg.NewStrategy(i), opts); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestSummariesMatchCoreRun pins that a fault-free SeedPerNode run's
// per-node summaries equal a direct core.Run of each node, float bit for
// float bit.
func TestSummariesMatchCoreRun(t *testing.T) {
	cfg := fleetConfig(2)
	cfg.SeedPerNode = true
	res, err := Run(cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range coreRuns(t, cfg, quickOpts()) {
		s := res.Summaries[i]
		if s.ELC != r.RunELC || s.EBE != r.RunEBE || s.ES != r.RunES || s.Yield != r.Yield ||
			s.ViolationEpochs != r.TotalViolationEpochs || s.Epochs != r.Epochs ||
			s.Incidents != len(r.Incidents) || s.LCApps+s.BEApps != len(r.Apps) {
			t.Errorf("node %d summary diverges from its core.Run: %+v", i, s)
		}
	}
}

// TestHealthyGlobalsMatchSystem pins the weight-1 rule: in a one-phase
// schedule every pooled sample weighs 1, so the fleet entropies and yield
// equal entropy.System and entropy.Yield over the pooled per-node samples,
// float bit for float bit.
func TestHealthyGlobalsMatchSystem(t *testing.T) {
	cfg := fleetConfig(2)
	cfg.SeedPerNode = true
	res, err := Run(cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	var lc []entropy.LCSample
	var be []entropy.BESample
	for _, r := range coreRuns(t, cfg, quickOpts()) {
		for _, a := range r.Apps {
			if a.Spec.Class == workload.LC && a.LCSample.Validate() == nil {
				lc = append(lc, a.LCSample)
			} else if a.Spec.Class != workload.LC && a.BESample.Validate() == nil {
				be = append(be, a.BESample)
			}
		}
	}
	elc, ebe, es, err := entropy.System{RI: entropy.DefaultRI}.Compute(lc, be)
	if err != nil {
		t.Fatal(err)
	}
	if res.GlobalELC != elc || res.GlobalEBE != ebe || res.GlobalES != es {
		t.Errorf("fleet entropies %v/%v/%v, entropy.System over the pooled samples %v/%v/%v",
			res.GlobalELC, res.GlobalEBE, res.GlobalES, elc, ebe, es)
	}
	if y, err := entropy.Yield(lc); err != nil || !res.YieldDefined || res.GlobalYield != y {
		t.Errorf("fleet yield %v (defined %v), entropy.Yield %v (%v)", res.GlobalYield, res.YieldDefined, y, err)
	}
}

// TestYieldUndefinedOnBEOnlyFleet pins the Yield-error bugfix: a fleet
// without LC applications reports the yield as undefined instead of
// silently leaving a zero that reads as "every app violated".
func TestYieldUndefinedOnBEOnlyFleet(t *testing.T) {
	res, err := Run(Config{
		Spec:        machine.DefaultSpec(),
		Seed:        3,
		NewStrategy: func(int) sched.Strategy { return static.Unmanaged{} },
		Placement:   [][]sim.AppConfig{{beApp("stream")}, {beApp("fluidanimate")}},
	}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.YieldDefined {
		t.Error("BE-only fleet reported a defined yield")
	}
	if res.GlobalYield != 0 {
		t.Errorf("undefined yield must stay 0, got %g", res.GlobalYield)
	}
	if math.IsNaN(res.GlobalEBE) || res.GlobalEBE < 0 || res.GlobalEBE > 1 {
		t.Errorf("BE-only fleet E_BE = %g, want in [0,1]", res.GlobalEBE)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := Run(Config{}, quickOpts()); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(Config{
		Placement:   [][]sim.AppConfig{{}},
		NewStrategy: func(int) sched.Strategy { return static.Unmanaged{} },
		Spec:        machine.DefaultSpec(),
	}, quickOpts()); err == nil {
		t.Error("empty node accepted")
	}
	if _, err := Run(Config{
		Placement: [][]sim.AppConfig{{lcAt("xapian", 0.2)}},
		Spec:      machine.DefaultSpec(),
	}, quickOpts()); err == nil {
		t.Error("missing strategy factory accepted")
	}
}

// TestPlacementMattersForGlobalES is the extension's point: the same
// applications and scheduler produce different datacenter entropy under
// different placements, and E_S ranks them. Packing everything onto one
// node while the other idles must not beat a balanced spread.
func TestPlacementMattersForGlobalES(t *testing.T) {
	apps := fleetApps()
	packed, err := Pack(apps, 2, 1e9) // everything on node 0... but node 1 empty is invalid
	if err != nil {
		t.Fatal(err)
	}
	// Keep node 1 non-empty: move the last app over.
	if len(packed[1]) == 0 {
		last := packed[0][len(packed[0])-1]
		packed[0] = packed[0][:len(packed[0])-1]
		packed[1] = append(packed[1], last)
	}
	balanced, err := Balanced(apps, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p [][]sim.AppConfig) float64 {
		res, err := Run(Config{
			Spec:        machine.DefaultSpec(),
			Seed:        5,
			NewStrategy: func(int) sched.Strategy { return arq.Default() },
			Placement:   p,
		}, quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		return res.GlobalES
	}
	esPacked, esBalanced := run(packed), run(balanced)
	if esBalanced > esPacked+0.02 {
		t.Errorf("balanced placement E_S %.3f worse than packed %.3f", esBalanced, esPacked)
	}
}
