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
					outs, stats, err := runUnits(&c, units, trajs, true)
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

// entryOf returns the cache entry under key, completed or in flight.
func entryOf(c *NodeCache, key cacheKey) *nodeCacheEntry {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[key.s]
}

// TestShardPublishesBeforeWaiting pins the claim protocol directly: a
// racer holds the entry of a shard's second trajectory, with a record for
// only one of its windows, and publishes it only once the shard has
// published its first trajectory. A shard that waited while holding its
// own claim would never publish, and both would block forever. The shard
// must then see the racer's entry lacks a window and replace it with one
// holding both.
func TestShardPublishesBeforeWaiting(t *testing.T) {
	opts := core.Options{EpochMs: 500, WarmupMs: -1, DurationMs: 6_000}
	cfg := recurrentFleet(t, 60, "crash@4+/nodes=10%", false)
	cfg.NodeCache = NewNodeCache()
	units, trajs := groupFor(t, &cfg, opts)
	var first, raced []int
	for _, tr := range trajs {
		switch {
		case units[tr[0]].key.s == "":
		case raced == nil && len(tr) >= 2:
			raced = tr
		case first == nil:
			first = tr
		}
	}
	if first == nil || raced == nil {
		t.Fatal("no pair of keyed trajectories, one with two windows")
	}
	key := units[raced[0]].key
	_, racer, _ := cfg.NodeCache.acquire(key, []window{units[raced[0]].win})
	if racer == nil {
		t.Fatal("fresh key not claimable")
	}
	outs := make([]classOut, len(units))
	done := make(chan error, 1)
	go func() {
		done <- runShard(cfg, 0, units, [][]int{first, raced}, true, outs, &statsCollector{})
	}()

	racedOut, err := simulateUnit(&cfg, units[raced[0]].unit)
	if err != nil {
		t.Fatal(err)
	}
	release := func() {
		cfg.NodeCache.publish(key, racer, trajRecords{{win: units[raced[0]].win, out: racedOut}}, nil)
	}
	deadline := time.After(30 * time.Second)
	for {
		if e := entryOf(cfg.NodeCache, units[first[0]].key); e != nil && e.completed() {
			break
		}
		select {
		case <-deadline:
			release()
			<-done
			t.Fatal("the shard did not publish its own trajectory before waiting on the racer")
		case <-time.After(time.Millisecond):
		}
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, ui := range append(append([]int(nil), first...), raced...) {
		want, err := simulateUnit(&cfg, units[ui].unit)
		if err != nil {
			t.Fatal(err)
		}
		if recordText(outs[ui]) != recordText(want) {
			t.Errorf("unit %d: the shard's record differs from the window's own simulation", ui)
		}
	}
	e := entryOf(cfg.NodeCache, key)
	for _, ui := range raced {
		if _, ok := e.recs.get(units[ui].win); !e.completed() || !ok {
			t.Errorf("the upgraded entry lacks window %+v", units[ui].win)
		}
	}
}
