package cluster

// Fleet determinism: the sharded engine must produce identical results
// for the same seed regardless of worker count, shard boundaries, or
// solve-cache sharing. Only the FleetStats cache counters may vary with
// scheduling — everything a caller can print must not.

import (
	"reflect"
	"testing"

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

// TestDedupMatchesFullSimulation pins the node-dedup contract: under a
// common-random-numbers seed policy, running one representative per node
// class and replicating it is bit-identical to simulating every node.
func TestDedupMatchesFullSimulation(t *testing.T) {
	build := func(dedup bool) Config {
		// Eight nodes drawn from two templates, all on one seed.
		a := []sim.AppConfig{lcAt("xapian", 0.5), beApp("stream")}
		b := []sim.AppConfig{lcAt("moses", 0.35), lcAt("silo", 0.2), beApp("fluidanimate")}
		placement := [][]sim.AppConfig{a, b, a, b, a, b, a, b}
		return Config{
			Spec:                machine.DefaultSpec(),
			Seed:                9,
			NewStrategy:         func(int) sched.Strategy { return arq.Default() },
			Placement:           placement,
			NodeSeed:            func(int) int64 { return 9 },
			DedupIdenticalNodes: dedup,
		}
	}
	full, err := Run(build(false), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	deduped, err := Run(build(true), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(deterministicView(full), deterministicView(deduped)) {
		t.Error("deduped fleet diverged from the fully simulated one")
	}
	if full.Stats.NodesSimulated != 8 {
		t.Errorf("full run simulated %d of 8 nodes", full.Stats.NodesSimulated)
	}
	if deduped.Stats.NodesSimulated != 2 {
		t.Errorf("dedup simulated %d classes, want 2", deduped.Stats.NodesSimulated)
	}
	if deduped.Stats.NodesRun != 8 {
		t.Errorf("dedup reports %d logical nodes, want 8", deduped.Stats.NodesRun)
	}
}

// TestDedupRespectsDistinctSeeds pins that the default seed policy keeps
// every node a singleton class even with dedup requested: distinct seeds
// mean distinct simulations, and dedup must never merge them.
func TestDedupRespectsDistinctSeeds(t *testing.T) {
	cfg := fleetConfig(2)
	cfg.DedupIdenticalNodes = true
	res, err := Run(cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NodesSimulated != res.Stats.NodesRun {
		t.Errorf("dedup merged nodes with distinct seeds: %d simulated of %d",
			res.Stats.NodesSimulated, res.Stats.NodesRun)
	}
}
