package cluster

// Trajectory coverage: the engine simulates each distinct node trajectory
// once per Run and cuts every unit's window from it. Each record must equal
// the reference that simulates the unit alone (its own engine, core.Run
// over its own horizon), at every parallelism level with the NodeCache on
// and off, and Runs racing on one cache with overlapping trajectories must
// neither deadlock nor diverge.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ahq/internal/core"
	"ahq/internal/entropy"
	"ahq/internal/faults"
	"ahq/internal/machine"
	"ahq/internal/sched"
	"ahq/internal/sched/arq"
	"ahq/internal/sim"
)

// trajectoryOpts is a 12-epoch horizon with a 2-epoch warm-up, so a crash
// at epoch 4 cuts a measured [0,4) phase whose warm-up is the run's.
var trajectoryOpts = core.Options{EpochMs: 500, WarmupMs: 1_000, DurationMs: 5_000}

// trajectoryPlans cover every fleet fault kind: a crash wave (the shape
// that pairs warmed and unwarmed windows of one content), a mixed plan of
// finite crashes, degrades and blackouts, and blackouts spanning a late
// crash's phase cut. Blackouts alone cut no phase.
var trajectoryPlans = []string{
	"crash@4+/nodes=5%",
	"crash@5x3/nodes=3,degrade@3+/nodes=2,blackout@6x2/nodes=3",
	"blackout@3x4/nodes=10%,crash@8+/nodes=2",
}

// recurrentFleet is a Scored fleet over a small quantised catalog, so node
// contents — and therefore trajectories — recur across nodes and phases.
func recurrentFleet(t *testing.T, nodes int, plan string, replace bool) Config {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	lcNames := []string{"xapian", "moses", "img-dnn", "silo"}
	beNames := []string{"stream", "fluidanimate"}
	loads := []float64{0.2, 0.5}
	apps := make([]sim.AppConfig, 0, nodes*2)
	for i := 0; i < nodes*2; i++ {
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
		Seed:           5,
		NewStrategy:    func(int) sched.Strategy { return arq.Default() },
		Placement:      CanonicalizePlacement(placement),
		StrategyDigest: "arq:default",
		FleetPlan:      p,
		ReplaceEvicted: replace,
	}
}

// groupFor groups cfg's schedule the way Run does.
func groupFor(t *testing.T, cfg *Config, opts core.Options) ([]shardUnit, [][]int) {
	t.Helper()
	total, _ := horizonEpochs(opts.WithDefaults())
	plan, err := cfg.FleetPlan.Resolve(cfg.Seed, len(cfg.Placement))
	if err != nil {
		t.Fatal(err)
	}
	sched := supervise(plan, cfg.Placement, cfg.Spec, cfg.ReplaceEvicted, total)
	units, trajs, _ := groupUnits(cfg, plan, sched, opts, entropy.DefaultRI)
	return units, trajs
}

// recordText renders a record for a NaN-aware bit comparison.
func recordText(co classOut) string { return fmt.Sprintf("%#v", co) }

// resultText renders a Run's printable outcome likewise.
func resultText(r *Result) string { return fmt.Sprintf("%#v", deterministicView(r)) }

func TestTrajectoriesMatchPerUnitReference(t *testing.T) {
	for _, plan := range trajectoryPlans {
		for _, replace := range []bool{false, true} {
			name := fmt.Sprintf("%s/replace=%v", plan, replace)
			cfg := recurrentFleet(t, 40, plan, replace)
			units, trajs := groupFor(t, &cfg, trajectoryOpts)
			shared := 0
			for _, tr := range trajs {
				if len(tr) > 1 {
					shared++
				}
			}
			if shared == 0 {
				t.Fatalf("%s: no trajectory carries two windows; the test exercised nothing", name)
			}
			want := make([]string, len(units))
			for ui, su := range units {
				co, err := simulateUnit(&cfg, su.unit)
				if err != nil {
					co = deadUnitOut(su.unit)
				}
				want[ui] = recordText(co)
			}
			ref := referenceRun(t, cfg, trajectoryOpts)

			var first string
			for _, parallel := range []int{1, 4} {
				for _, cached := range []bool{false, true} {
					c := cfg
					c.Parallel = parallel
					if cached {
						c.NodeCache = NewNodeCache()
					}
					label := fmt.Sprintf("%s parallel=%d cache=%v", name, parallel, cached)
					units, trajs := groupFor(t, &c, trajectoryOpts)
					outs, stats, err := runUnits(&c, units, trajs)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if stats.NodesSimulated != len(trajs) {
						t.Errorf("%s: %d simulations for %d trajectories", label, stats.NodesSimulated, len(trajs))
					}
					for ui := range units {
						if got := recordText(outs[ui]); got != want[ui] {
							t.Fatalf("%s: unit %d (%+v) differs from its own simulation:\n got %s\nwant %s",
								label, ui, units[ui].unit.opts, got, want[ui])
						}
					}
					if cached {
						c.NodeCache = NewNodeCache()
					}
					res, err := Run(c, trajectoryOpts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					checkAgainstReference(t, res, ref)
					if first == "" {
						first = resultText(res)
					} else if resultText(res) != first {
						t.Errorf("%s: result differs from parallel=1 uncached", label)
					}
					if cached {
						// A warm cache replays every window.
						again, err := Run(c, trajectoryOpts)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if again.Stats.NodesSimulated != 0 || resultText(again) != first {
							t.Errorf("%s: warm replay simulated %d trajectories or diverged", label, again.Stats.NodesSimulated)
						}
					}
				}
			}
		}
	}
}

// TestConcurrentRunsWithOverlappingTrajectories races Runs on one cache
// whose trajectories overlap, and every Run must finish and equal its
// uncached serial result. Two copies of one configuration claim the same
// windows; configurations cut at other phase boundaries share
// trajectories with them under different windows; and, with no warm-up, a
// crash at epoch 4 gives a surviving node's trajectory the windows [0,4)
// and [4,12) while a crash at epoch 8 gives the same trajectory [0,8) and
// [8,12) — the same two window keys, listed in opposite orders. Racing
// those two Runs makes them claim one window each: an engine that waited
// on a racer before publishing its own claims would deadlock there.
func TestConcurrentRunsWithOverlappingTrajectories(t *testing.T) {
	noWarm := core.Options{EpochMs: 500, WarmupMs: -1, DurationMs: 6_000}
	runs := []struct {
		plan    string
		replace bool
		opts    core.Options
	}{
		{"crash@4+/nodes=5%", false, trajectoryOpts},
		{"crash@4+/nodes=5%", false, trajectoryOpts},
		{"crash@6+/nodes=5%", true, trajectoryOpts},
		{"", false, trajectoryOpts},
		{"crash@4+/nodes=10%", false, noWarm},
		{"crash@8+/nodes=10%", false, noWarm},
	}
	want := make([]string, len(runs))
	for i, r := range runs {
		res, err := Run(recurrentFleet(t, 60, r.plan, r.replace), r.opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultText(res)
	}
	cache := NewNodeCache()
	got := make([]string, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		cfg := recurrentFleet(t, 60, r.plan, r.replace)
		cfg.NodeCache = cache
		cfg.Parallel = 3
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Run(cfg, r.opts)
			if err == nil {
				got[i] = resultText(res)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i := range runs {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("run %d (%q) diverged from its uncached serial result", i, runs[i].plan)
		}
	}
}

// TestShardPublishesBeforeWaiting pins the claim protocol directly: a
// racer holds one window of a trajectory and publishes it only once the
// shard has published the window it claimed itself. A shard that waited
// on the racer first would never publish, and both would block forever.
func TestShardPublishesBeforeWaiting(t *testing.T) {
	opts := core.Options{EpochMs: 500, WarmupMs: -1, DurationMs: 6_000}
	cfg := recurrentFleet(t, 60, "crash@4+/nodes=10%", false)
	cfg.NodeCache = NewNodeCache()
	units, trajs := groupFor(t, &cfg, opts)
	var traj []int
	for _, tr := range trajs {
		if len(tr) >= 2 && units[tr[0]].key.s != "" {
			traj = tr
			break
		}
	}
	if traj == nil {
		t.Fatal("no keyed trajectory with two windows")
	}
	own, raced := units[traj[0]], units[traj[1]]
	racer, claimed := cfg.NodeCache.claim(raced.key)
	if !claimed {
		t.Fatal("fresh key not claimable")
	}
	outs := make([]classOut, len(units))
	done := make(chan error, 1)
	go func() { done <- runShard(cfg, 0, units, [][]int{traj}, outs, &statsCollector{}) }()

	racedOut, err := simulateUnit(&cfg, raced.unit)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(30 * time.Second)
	var ownEntry *nodeCacheEntry
	for ownEntry == nil {
		if e, ok := cfg.NodeCache.lookup(own.key); ok {
			ownEntry = e
			continue
		}
		select {
		case <-deadline:
			t.Fatal("the shard never claimed its own window")
		case <-time.After(time.Millisecond):
		}
	}
	select {
	case <-ownEntry.done:
	case <-deadline:
		cfg.NodeCache.publish(raced.key, racer, racedOut, nil) // release the shard
		<-done
		t.Fatal("the shard waited on a racer before publishing its own claim")
	}
	cfg.NodeCache.publish(raced.key, racer, racedOut, nil)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	ownOut, err := simulateUnit(&cfg, own.unit)
	if err != nil {
		t.Fatal(err)
	}
	if recordText(outs[traj[0]]) != recordText(ownOut) || recordText(outs[traj[1]]) != recordText(racedOut) {
		t.Error("the shard's records differ from the windows' own simulations")
	}
}
