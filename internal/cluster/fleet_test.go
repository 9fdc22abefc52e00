package cluster

// Fleet determinism: the sharded engine must produce identical results
// for the same seed regardless of worker count, shard boundaries, or
// solve-cache sharing. Only the FleetStats cache counters may vary with
// scheduling — everything a caller can print must not.

import (
	"reflect"
	"testing"

	"ahq/internal/core"
	"ahq/internal/entropy"
	"ahq/internal/machine"
	"ahq/internal/sched"
	"ahq/internal/sched/arq"
	"ahq/internal/sim"
)

func fleetConfig(parallel int) Config {
	placement, err := RoundRobin(conformanceApps(24), 8)
	if err != nil {
		panic(err)
	}
	return Config{
		Spec:        machine.DefaultSpec(),
		Seed:        42,
		NewStrategy: func(int) sched.Strategy { return arq.Default() },
		Placement:   placement,
		Parallel:    parallel,
	}
}

// deterministicView strips the scheduling-dependent cache counters,
// leaving exactly the fields an experiment is allowed to print.
func deterministicView(r *Result) Result {
	v := *r
	v.Stats = FleetStats{}
	return v
}

func TestFleetDeterministicAcrossParallelism(t *testing.T) {
	var views []Result
	for _, parallel := range []int{1, 0, 7} {
		res, err := Run(fleetConfig(parallel), quickOpts())
		if err != nil {
			t.Fatalf("parallel %d: %v", parallel, err)
		}
		views = append(views, deterministicView(res))
	}
	for i := 1; i < len(views); i++ {
		if !reflect.DeepEqual(views[0], views[i]) {
			t.Errorf("fleet result differs between parallel settings 1 and %d", []int{1, 0, 7}[i])
		}
	}
}

func TestFleetDeterministicAcrossRuns(t *testing.T) {
	a, err := Run(fleetConfig(3), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fleetConfig(3), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(deterministicView(a), deterministicView(b)) {
		t.Error("identical fleet configs produced different results")
	}
}

// referenceGlobals is the fleet-level outcome referenceRun computes.
type referenceGlobals struct {
	elc, ebe, es, yield            float64
	measured, violations, lcEpochs int
}

// referenceRun is the ungrouped, uncached reading of Run: it simulates
// every (phase, node) slot of the schedule on its own and pools the
// records in slot order, dead windows after, weighting samples by their
// phase's measured epochs (1 in a one-phase schedule).
func referenceRun(t *testing.T, cfg Config, opts core.Options) referenceGlobals {
	t.Helper()
	ri := cfg.RI
	if ri == 0 {
		ri = entropy.DefaultRI
	}
	total, warm := horizonEpochs(opts.WithDefaults())
	plan, err := cfg.FleetPlan.Resolve(cfg.Seed, len(cfg.Placement))
	if err != nil {
		t.Fatal(err)
	}
	sched := supervise(plan, cfg.Placement, cfg.Spec, cfg.ReplaceEvicted, total)
	weight := func(measured int) float64 {
		if len(sched.phases) == 1 {
			return 1
		}
		return float64(measured)
	}
	var g referenceGlobals
	var lc []entropy.Weighted[entropy.LCSample]
	var be []entropy.Weighted[entropy.BESample]
	phaseUnits(&cfg, plan, sched, opts, ri, func(_ unitRef, u simUnit, _ []byte, _ uint64, measured int) {
		co, _, err := simulateUnit(&cfg, u)
		if err != nil {
			co = deadUnitOut(u)
		}
		g.measured += co.sum.Epochs
		g.violations += co.sum.ViolationEpochs
		g.lcEpochs += co.sum.LCApps * co.sum.Epochs
		for _, s := range co.lc {
			lc = append(lc, entropy.Weighted[entropy.LCSample]{Sample: s, Weight: weight(measured)})
		}
		for _, s := range co.be {
			be = append(be, entropy.Weighted[entropy.BESample]{Sample: s, Weight: weight(measured)})
		}
	})
	for pi := range sched.phases {
		_, measured := phaseWindow(&sched.phases[pi], warm)
		if measured == 0 {
			continue
		}
		for _, d := range sched.phases[pi].dead {
			if d.app.LC != nil {
				lc = append(lc, entropy.Weighted[entropy.LCSample]{Sample: deadLCSample(d.app), Weight: weight(measured)})
				g.violations += measured
				g.lcEpochs += measured
			} else {
				be = append(be, entropy.Weighted[entropy.BESample]{Sample: deadBESample(d.app), Weight: weight(measured)})
			}
		}
	}
	if g.elc, g.ebe, g.es, err = (entropy.WeightedSystem{RI: ri}).Compute(lc, be); err != nil {
		t.Fatal(err)
	}
	if sat, tot := weightedSatisfied(lc); tot > 0 {
		g.yield = sat / tot
	}
	return g
}

// checkAgainstReference compares a Run's fleet-level outcome with
// referenceRun's, float bit for float bit.
func checkAgainstReference(t *testing.T, res *Result, want referenceGlobals) {
	t.Helper()
	got := referenceGlobals{
		elc: res.GlobalELC, ebe: res.GlobalEBE, es: res.GlobalES, yield: res.GlobalYield,
		measured: res.MeasuredEpochs, violations: res.TotalViolationEpochs, lcEpochs: res.LCAppEpochs,
	}
	if got != want {
		t.Errorf("grouped run diverged from the slot-by-slot reference:\n got %+v\nwant %+v", got, want)
	}
}

// TestDedupMatchesFullSimulation pins the grouping contract: under the
// default common-random-numbers seed policy, running one simulation per
// distinct unit and replicating it is bit-identical to simulating every
// node.
func TestDedupMatchesFullSimulation(t *testing.T) {
	// Eight nodes drawn from two templates, the second in two orders.
	a := []sim.AppConfig{lcAt("xapian", 0.5), beApp("stream")}
	b := []sim.AppConfig{lcAt("moses", 0.35), lcAt("silo", 0.2), beApp("fluidanimate")}
	b2 := []sim.AppConfig{b[2], b[0], b[1]}
	cfg := Config{
		Spec:        machine.DefaultSpec(),
		Seed:        9,
		NewStrategy: func(int) sched.Strategy { return arq.Default() },
		Placement:   [][]sim.AppConfig{a, b, a, b2, a, b, a, b2},
	}
	res, err := Run(cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, res, referenceRun(t, cfg, quickOpts()))
	if res.Stats.NodesSimulated != 2 {
		t.Errorf("grouped run simulated %d units, want 2", res.Stats.NodesSimulated)
	}
	if res.Stats.NodesRun != 8 {
		t.Errorf("grouped run reports %d logical nodes, want 8", res.Stats.NodesRun)
	}
	for i := 2; i < 8; i++ {
		if s, ref := res.Summaries[i], res.Summaries[i%2]; s.ES != ref.ES || s.Epochs != ref.Epochs {
			t.Errorf("node %d summary %+v differs from its template twin %+v", i, s, ref)
		}
	}
}

// TestDedupRespectsDistinctSeeds pins that the SeedPerNode policy keeps
// every node its own simulation even where contents coincide (fleetConfig
// places equal multisets on nodes 0 and 4): distinct seeds mean distinct
// simulations, and grouping must never merge them.
func TestDedupRespectsDistinctSeeds(t *testing.T) {
	cfg := fleetConfig(2)
	cfg.SeedPerNode = true
	res, err := Run(cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NodesSimulated != res.Stats.NodesRun {
		t.Errorf("grouping merged nodes with distinct seeds: %d simulated of %d",
			res.Stats.NodesSimulated, res.Stats.NodesRun)
	}
}
