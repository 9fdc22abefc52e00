package cluster

// Trajectory entries: a NodeCache entry holds every window one simulation
// of a trajectory cut — the windows a Run asked for and, for a Run of
// several phases, every prefix [0,k) up to the longest. Each replayed
// record must be bit-identical to a fresh core.Run of its own window, and
// a fault sweep over one cache must simulate each trajectory only as often
// as its longest window grows.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ahq/internal/core"
	"ahq/internal/faults"
	"ahq/internal/machine"
	"ahq/internal/sched"
	"ahq/internal/sched/arq"
	"ahq/internal/sim"
	"ahq/internal/trace"
	"ahq/internal/workload"
)

// starvedApp is an LC application whose requests take minutes: it
// completes nothing in any window, so its run-level p95 is the age of its
// oldest waiting request at the window's last epoch.
func starvedApp() sim.AppConfig {
	s := workload.MustLC("silo")
	s.Name = "starved"
	s.ServiceMeanMs, s.IdealP95Ms, s.QoSTargetMs = 120_000, 200_000, 300_000
	s.MaxLoadQPS = 4
	return sim.AppConfig{LC: &s, Load: trace.Constant(0.5)}
}

// windowOpts spells window [warm, total) as phase options do.
func windowOpts(w window) core.Options {
	o := core.Options{EpochMs: 500, WarmupMs: -1, DurationMs: float64(w.total-w.warm) * 500}
	if w.warm > 0 {
		o.WarmupMs = float64(w.warm) * 500
	}
	return o
}

// trajectoryUnits builds one keyed unit per window of a trajectory.
func trajectoryUnits(u simUnit, key cacheKey, wins []window) []shardUnit {
	units := make([]shardUnit, len(wins))
	for i, w := range wins {
		u.opts = windowOpts(w)
		units[i] = shardUnit{key: key, win: w, unit: u}
	}
	return units
}

func TestTrajectoryEntryReplaysFreshRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	lcNames := []string{"xapian", "moses", "img-dnn", "silo", "masstree", "sphinx"}
	beNames := []string{"stream", "fluidanimate", "streamcluster"}
	cfg := Config{
		NewStrategy:    func(int) sched.Strategy { return arq.Default() },
		StrategyDigest: "arq:default",
		NodeCache:      NewNodeCache(),
	}
	sawDegraded, sawBlackout, sawStarved := false, false, false
	for trial := 0; trial < 6; trial++ {
		apps := []sim.AppConfig{lcAt(lcNames[rng.Intn(len(lcNames))], 0.2+0.5*rng.Float64())}
		if rng.Intn(2) == 0 {
			apps = append(apps, beApp(beNames[rng.Intn(len(beNames))]))
		}
		if trial%2 == 0 {
			apps = append(apps, starvedApp())
		}
		spec := machine.DefaultSpec()
		if trial%3 != 2 {
			spec = faults.DegradedSpec(spec)
			sawDegraded = true
		}
		var blackout *faults.Plan
		if trial%3 != 1 {
			var err error
			blackout, err = faults.Parse(fmt.Sprintf("drop@%dx%d", 1+rng.Intn(4), 1+rng.Intn(3)))
			if err != nil {
				t.Fatal(err)
			}
			sawBlackout = true
		}
		u := simUnit{node: trial, apps: apps, spec: spec, seed: rng.Int63(), blackout: blackout}
		key := cacheKey{s: fmt.Sprintf("trajectory %d", trial), hash: uint64(trial)}
		name := fmt.Sprintf("trial %d (%d apps, cores %d, blackout %s)", trial, len(apps), spec.Cores, blackout)

		// Each Run asks other windows of the one trajectory: warm-up
		// windows next to prefixes, then a longer window that re-simulates
		// and replaces the entry, then a mix the entry must hold.
		w := 1 + rng.Intn(3)
		random := window{w, w + 1 + rng.Intn(5)}
		runs := [][]window{
			{{2, 4}, {0, 8}, random},
			{{0, 1}, {0, 5}, {2, 4}, {0, 8}},
			{{0, 10}, {3, 7}},
			{{0, 1}, {2, 4}, {0, 9}, {3, 7}, random},
		}
		simulated := make([]int, len(runs))
		for ri, wins := range runs {
			units := trajectoryUnits(u, key, wins)
			idx := make([]int, len(units))
			for i := range idx {
				idx[i] = i
			}
			outs := make([]classOut, len(units))
			stats := &statsCollector{}
			if err := runShard(cfg, 0, units, [][]int{idx}, true, outs, stats); err != nil {
				t.Fatal(err)
			}
			simulated[ri] = stats.snapshot().NodesSimulated
			for i, su := range units {
				want, err := simulateUnit(&cfg, su.unit)
				if err != nil {
					t.Fatal(err)
				}
				if got, w := recordText(outs[i]), recordText(want); got != w {
					t.Fatalf("%s: run %d window %+v differs from a fresh core.Run:\n got %s\nwant %s", name, ri, su.win, got, w)
				}
				for _, smp := range want.lc {
					if smp.Name == "starved" && smp.MeasuredMs > 0 {
						sawStarved = true
					}
				}
			}
		}
		// Run 1 asks only for prefixes and windows run 0 cut; run 2 needs
		// a longer window; run 3 only for windows the replaced entry kept.
		if fmt.Sprint(simulated) != "[1 0 1 0]" {
			t.Errorf("%s: simulations per run %v, want [1 0 1 0]", name, simulated)
		}

		// RunHorizons against one core.Run per horizon, on the same
		// trajectory with every window of the sweep at once.
		var opts []core.Options
		for _, wins := range runs {
			for _, w := range wins {
				opts = append(opts, windowOpts(w))
			}
		}
		node := func() (core.Engine, sched.Strategy) {
			e, err := sim.New(sim.Config{Spec: u.spec, Seed: u.seed, Apps: uniquify(u.apps)})
			if err != nil {
				t.Fatal(err)
			}
			if blackout.Empty() {
				return e, cfg.NewStrategy(0)
			}
			return faults.NewInjector(blackout).Engine(e), cfg.NewStrategy(0)
		}
		e, s := node()
		got, err := core.RunHorizons(e, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range opts {
			e, s := node()
			want, err := core.Run(e, s, o)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := fmt.Sprintf("%#v", *got[i]), fmt.Sprintf("%#v", *want); g != w {
				t.Errorf("%s: horizon %d (%+v) differs from its own core.Run:\n got %s\nwant %s", name, i, o, g, w)
			}
		}
	}
	if !sawDegraded || !sawBlackout || !sawStarved {
		t.Errorf("degraded %v, blackout %v, starved %v: the trajectories did not cover every case", sawDegraded, sawBlackout, sawStarved)
	}
}

// sweepPlans is the fault sweep of the fleet-chaos benchmark: persistent
// crash waves at three fractions and the mixed plan, each run with and
// without re-placement.
var sweepPlans = []string{
	"crash@4+/nodes=1%",
	"crash@4+/nodes=5%",
	"crash@4+/nodes=10%",
	"crash@4x4/nodes=5%,degrade@2+/nodes=10%,blackout@6x3/nodes=10%",
}

// sweepFleet is a 150-node Scored fleet drawn like the benchmark's: about
// 2.5 applications per node, 70% of them LC at quantised loads, under plan
// with cache (nil for none).
func sweepFleet(t *testing.T, plan string, replace bool, cache *NodeCache) Config {
	t.Helper()
	const nodes = 150
	rng := rand.New(rand.NewSource(9))
	lcNames := []string{"xapian", "moses", "img-dnn", "silo", "masstree", "sphinx"}
	beNames := []string{"stream", "fluidanimate", "streamcluster"}
	loads := []float64{0.2, 0.35, 0.5, 0.7}
	apps := make([]sim.AppConfig, 0, nodes*5/2)
	for i := 0; i < nodes*5/2; i++ {
		if rng.Float64() < 0.7 {
			apps = append(apps, lcAt(lcNames[rng.Intn(len(lcNames))], loads[rng.Intn(len(loads))]))
		} else {
			apps = append(apps, beApp(beNames[rng.Intn(len(beNames))]))
		}
	}
	spec := machine.DefaultSpec()
	placement, err := Scored(apps, nodes, spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := faults.ParseFleet(plan)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Spec:           spec,
		Seed:           9,
		NewStrategy:    func(int) sched.Strategy { return arq.Default() },
		Placement:      CanonicalizePlacement(placement),
		NodeCache:      cache,
		StrategyDigest: "arq:default",
		FleetPlan:      p,
		ReplaceEvicted: replace,
	}
}

// TestSweepSharesTrajectoriesAcrossRuns pins how much the fleet-chaos
// sweep simulates over one cache. Without cross-Run sharing every Run
// simulates each of its trajectories; with trajectory entries a later Run
// re-simulates only the trajectories whose longest window grew, or that
// need a warm-up window no earlier Run cut. Every Run must still equal
// its uncached result.
func TestSweepSharesTrajectoriesAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the eight-Run sweep twice")
	}
	cache := NewNodeCache()
	shared, alone := 0, 0
	for _, plan := range sweepPlans {
		for _, replace := range []bool{false, true} {
			res, err := Run(sweepFleet(t, plan, replace, cache), trajectoryOpts)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Run(sweepFleet(t, plan, replace, nil), trajectoryOpts)
			if err != nil {
				t.Fatal(err)
			}
			if resultText(res) != resultText(fresh) {
				t.Errorf("%s replace=%v: the shared-cache Run differs from its uncached Run", plan, replace)
			}
			shared += res.Stats.NodesSimulated
			alone += fresh.Stats.NodesSimulated
		}
	}
	// Recorded when trajectory entries landed (a cache of one entry per
	// window simulated 375 here); a change means the cache shares more or
	// less than it did, which is worth a look either way.
	const wantShared, wantAlone = 151, 591
	if shared != wantShared || alone != wantAlone {
		t.Errorf("the sweep simulated %d trajectories over one cache and %d Run by Run; want %d and %d",
			shared, alone, wantShared, wantAlone)
	}
}

// TestConcurrentRunsUpgradeOneEntry races Runs that each need a longer
// window of trajectories an earlier Run cached: both must replace the
// entry (or adopt the other's replacement) without losing a window, and
// every Run must equal its uncached serial result. Under -race this also
// exercises the replace-and-wait path of acquire.
func TestConcurrentRunsUpgradeOneEntry(t *testing.T) {
	noWarm := core.Options{EpochMs: 500, WarmupMs: -1, DurationMs: 6_000}
	seedPlan := "crash@3+/nodes=10%"
	racers := []string{"crash@8+/nodes=10%", "crash@10+/nodes=10%", "crash@9+/nodes=10%"}
	want := make([]string, len(racers))
	for i, plan := range racers {
		res, err := Run(recurrentFleet(t, 60, plan, false), noWarm)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultText(res)
	}
	for round := 0; round < 3; round++ {
		cache := NewNodeCache()
		cfg := recurrentFleet(t, 60, seedPlan, false)
		cfg.NodeCache = cache
		if _, err := Run(cfg, noWarm); err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(racers))
		errs := make([]error, len(racers))
		var wg sync.WaitGroup
		for i, plan := range racers {
			cfg := recurrentFleet(t, 60, plan, false)
			cfg.NodeCache = cache
			cfg.Parallel = 2
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := Run(cfg, noWarm)
				if err == nil {
					got[i] = resultText(res)
				}
				errs[i] = err
			}()
		}
		wg.Wait()
		for i := range racers {
			if errs[i] != nil {
				t.Fatalf("round %d racer %d: %v", round, i, errs[i])
			}
			if got[i] != want[i] {
				t.Errorf("round %d: racer %q diverged from its uncached serial result", round, racers[i])
			}
		}
		// Every racer's windows survive in the cache: a replay of each
		// simulates nothing.
		for _, plan := range racers {
			cfg := recurrentFleet(t, 60, plan, false)
			cfg.NodeCache = cache
			res, err := Run(cfg, noWarm)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.NodesSimulated != 0 {
				t.Errorf("round %d: replaying %q simulated %d trajectories; a racer's upgrade lost windows", round, plan, res.Stats.NodesSimulated)
			}
		}
	}
}
