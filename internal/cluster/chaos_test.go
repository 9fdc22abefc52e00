package cluster

// Chaos-engine coverage: determinism of the phased fleet run at every
// parallelism level, conservation of the application multiset across
// evict/re-place, memoised unit keys against a from-scratch serialisation,
// failure absorption (a broken node must not abort the fleet), future
// draining on shard errors, and the NodeCache negative-caching regression
// (errored entries must be dropped, not served as empty successes).

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ahq/internal/core"
	"ahq/internal/faults"
	"ahq/internal/machine"
	"ahq/internal/sched"
	"ahq/internal/sched/arq"
	"ahq/internal/sim"
)

func chaosConfig(parallel int, plan string, replace bool) Config {
	p, err := faults.ParseFleet(plan)
	if err != nil {
		panic(err)
	}
	cfg := fleetConfig(parallel)
	cfg.FleetPlan = p
	cfg.ReplaceEvicted = replace
	return cfg
}

// TestChaosDeterministicAcrossParallelism is the chaos analogue of the
// fleet determinism contract, with all three fault kinds and re-placement
// active: everything printable — samples, incident counters, supervisor
// counters — must be identical at -parallel 1, default, and 7.
func TestChaosDeterministicAcrossParallelism(t *testing.T) {
	const plan = "crash@6x3/nodes=2,degrade@5+/nodes=1,blackout@7x2/nodes=2"
	var views []Result
	for _, parallel := range []int{1, 0, 7} {
		res, err := Run(chaosConfig(parallel, plan, true), quickOpts())
		if err != nil {
			t.Fatalf("parallel %d: %v", parallel, err)
		}
		v := deterministicView(res)
		// The incident counters are part of the deterministic contract,
		// unlike the solve counters deterministicView strips.
		v.Stats.FailedNodes = res.Stats.FailedNodes
		v.Stats.DownEpochs = res.Stats.DownEpochs
		v.Stats.Evictions = res.Stats.Evictions
		views = append(views, v)
	}
	for i := 1; i < len(views); i++ {
		if !reflect.DeepEqual(views[0], views[i]) {
			t.Errorf("chaos result differs between parallel settings 1 and %d", []int{1, 0, 7}[i])
		}
	}
	if views[0].Stats.FailedNodes == 0 || views[0].Evictions == 0 {
		t.Errorf("chaos run recorded no incidents (failed=%d evictions=%d); plan not applied?",
			views[0].Stats.FailedNodes, views[0].Evictions)
	}
}

// TestChaosDeterministicWithNodeCache runs the same chaos config twice
// against one shared NodeCache: the replay must be bit-identical to the
// original and actually come from the cache.
func TestChaosDeterministicWithNodeCache(t *testing.T) {
	cache := NewNodeCache()
	run := func() *Result {
		cfg := chaosConfig(3, "crash@6x3/nodes=2,blackout@7x2/nodes=2", true)
		cfg.NodeCache = cache
		cfg.StrategyDigest = "arq:default"
		res, err := Run(cfg, quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(deterministicView(a), deterministicView(b)) {
		t.Error("NodeCache replay of a chaos run differs from the original")
	}
	if b.Stats.NodeCacheHits == 0 {
		t.Error("second chaos run hit the NodeCache zero times")
	}
}

// chaosUnitKey is the from-scratch reference serialisation of a unit's
// content key: the per-phase horizon (post-default), then its trajectory
// key — capacity, epoch length, RI and timeline flag (post-default),
// aggregation RI, engine tunables, strategy digest, blackout plan, seed
// and canonical template — in one pass. It returns the unit key and the
// trajectory key, "" when the template is not key-serialisable.
func chaosUnitKey(cfg *Config, u simUnit, ri float64) (string, string) {
	_, tk := orderedTemplate(u.apps, false)
	if tk == nil {
		return "", ""
	}
	o := u.opts.WithDefaults()
	var h, b []byte
	h = sim.AppendKeyFloat(h, o.WarmupMs)
	h = sim.AppendKeyFloat(h, o.DurationMs)
	b = sim.AppendKeyInt(b, u.spec.Cores)
	b = sim.AppendKeyInt(b, u.spec.LLCWays)
	b = sim.AppendKeyInt(b, u.spec.MemBWUnits)
	b = sim.AppendKeyFloat(b, u.spec.MemBWGBps)
	b = sim.AppendKeyFloat(b, o.EpochMs)
	b = sim.AppendKeyFloat(b, o.RI)
	if o.RecordTimeline {
		b = append(b, 'T')
	}
	b = sim.AppendKeyFloat(b, ri)
	b = sim.AppendTunablesKey(b, sim.DefaultTunables())
	b = sim.AppendKeyString(b, cfg.StrategyDigest)
	b = sim.AppendKeyString(b, u.blackout.String())
	b = sim.AppendKeyInt64(b, u.seed)
	b = append(b, '|')
	b = append(b, tk...)
	return string(h) + string(b), string(b)
}

// TestChaosUnitKeysMatchFromScratch pins the per-node template memo and the
// per-phase key prefix: under crashes, a degrade, blackouts and (with
// ReplaceEvicted) re-placement, every unit's applications, seed, key and
// shard hash must equal what a from-scratch canonicalisation and
// serialisation of the phase's assignment gives — so NodeCache traffic and
// output cannot depend on the memo. A re-placement target must get a fresh
// template, seed and key once its assignment changes.
func TestChaosUnitKeysMatchFromScratch(t *testing.T) {
	const plan = "crash@6x3/nodes=2,degrade@5+/nodes=1,blackout@7x2/nodes=2"
	const ri = 0.8
	for _, replace := range []bool{true, false} {
		cfg := chaosConfig(1, plan, replace)
		cfg.StrategyDigest = "arq:default"
		o := quickOpts().WithDefaults()
		total := int(math.Ceil((o.WarmupMs + o.DurationMs) / o.EpochMs))
		resolved, err := cfg.FleetPlan.Resolve(cfg.Seed, len(cfg.Placement))
		if err != nil {
			t.Fatal(err)
		}
		sched := supervise(resolved, cfg.Placement, cfg.Spec, replace, total)

		type seen struct {
			apps []sim.AppConfig
			seed int64
		}
		prev := make(map[int]seen)
		var units, degraded, blackedOut, refreshed int
		phaseUnits(&cfg, resolved, sched, quickOpts(), ri, func(ref unitRef, u simUnit, key, traj []byte, hash uint64, measured int) {
			units++
			ph := &sched.phases[ref.phase]
			apps := CanonicalOrder(ph.assign[ref.node])
			spec := cfg.Spec
			if ph.degraded[ref.node] {
				spec = faults.DegradedSpec(spec)
				degraded++
			}
			blackout := resolved.BlackoutPlan(ref.node, ph.start, ph.end)
			if !blackout.Empty() {
				blackedOut++
			}
			want := simUnit{
				node: ref.node, apps: apps, spec: spec,
				seed: seedOf(cfg.Seed, apps), opts: u.opts, blackout: blackout,
			}
			if !reflect.DeepEqual(u, want) {
				t.Errorf("replace=%v phase %d node %d: unit %+v, from scratch %+v", replace, ref.phase, ref.node, u, want)
			}
			if got := u.opts.DurationMs; got != float64(measured)*o.EpochMs {
				t.Errorf("replace=%v phase %d: DurationMs %v for %d measured epochs", replace, ref.phase, got, measured)
			}
			wantKey, wantTraj := chaosUnitKey(&cfg, want, ri)
			if string(key) != wantKey {
				t.Errorf("replace=%v phase %d node %d: memoised key differs from scratch\n got %q\nwant %q",
					replace, ref.phase, ref.node, key, wantKey)
			}
			if string(traj) != wantTraj {
				t.Errorf("replace=%v phase %d node %d: trajectory key differs from scratch\n got %q\nwant %q",
					replace, ref.phase, ref.node, traj, wantTraj)
			}
			_, tk := orderedTemplate(apps, false)
			if h := keyHash(want.seed, fnv1a(tk)); hash != h {
				t.Errorf("replace=%v phase %d node %d: shard hash %x, from scratch %x", replace, ref.phase, ref.node, hash, h)
			}
			if p, ok := prev[ref.node]; ok && len(p.apps) != len(apps) {
				// The node's contents changed: a re-placement landed here.
				refreshed++
				if u.seed == p.seed || !strings.HasSuffix(string(key), "|"+string(tk)) {
					t.Errorf("replace=%v phase %d node %d: key not refreshed after the assignment changed", replace, ref.phase, ref.node)
				}
			}
			prev[ref.node] = seen{u.apps, u.seed}
		})
		if units == 0 || degraded == 0 || blackedOut == 0 {
			t.Errorf("replace=%v: %d units, %d degraded, %d blacked out; plan not exercised", replace, units, degraded, blackedOut)
		}
		if replace && refreshed == 0 {
			t.Error("no re-placement target changed contents; re-placement not exercised")
		}
	}
}

// TestChaosReplaceBeatsNoReplace pins the headline robustness claim:
// under a persistent crash, failure-aware re-placement yields lower fleet
// E_S and violation rate than leaving the victims' applications dead.
func TestChaosReplaceBeatsNoReplace(t *testing.T) {
	const plan = "crash@5+/nodes=2"
	nr, err := Run(chaosConfig(0, plan, false), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Run(chaosConfig(0, plan, true), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if nr.Evictions != 0 || nr.Replacements != 0 {
		t.Errorf("no-replace run evicted: %d evictions, %d replacements", nr.Evictions, nr.Replacements)
	}
	if rp.Evictions == 0 || rp.Replacements == 0 {
		t.Fatalf("replace run did not re-place: %d evictions, %d replacements", rp.Evictions, rp.Replacements)
	}
	if rp.MeanRecoveryEpochs < 1 {
		t.Errorf("MeanRecoveryEpochs = %g, want >= 1 (orphans retry from the epoch after the crash)", rp.MeanRecoveryEpochs)
	}
	if !(rp.GlobalES < nr.GlobalES) {
		t.Errorf("re-placement did not improve fleet E_S: replace %g vs no-replace %g", rp.GlobalES, nr.GlobalES)
	}
	// Violation rate may go either way — a re-placed app running with some
	// violations still beats a dead window on severity — but both rates
	// must stay well-formed.
	for _, r := range []*Result{nr, rp} {
		if vr := r.ViolationRate(); vr <= 0 || vr > 1 {
			t.Errorf("violation rate = %g, want (0,1]", vr)
		}
	}
	for _, r := range []*Result{nr, rp} {
		if r.Stats.FailedNodes != 2 {
			t.Errorf("FailedNodes = %d, want 2", r.Stats.FailedNodes)
		}
	}
}

// TestChaosCrashAccounting pins the incident bookkeeping of a single
// bounded crash against hand-computed epoch math (quickOpts: 14 total
// epochs, 4 warm, 10 measured).
func TestChaosCrashAccounting(t *testing.T) {
	res, err := Run(chaosConfig(2, "crash@6x3/node=2", false), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summaries[2]
	if !s.Failed || s.DownEpochs != 3 {
		t.Errorf("victim summary: Failed=%v DownEpochs=%d, want true/3", s.Failed, s.DownEpochs)
	}
	// Phases [0,6) and [9,14): 2 + 5 measured epochs alive.
	if s.Epochs != 7 {
		t.Errorf("victim alive epochs = %d, want 7", s.Epochs)
	}
	// RoundRobin gives node 2 two LC apps; 3 dead epochs each, all
	// measured, all violations.
	if s.ViolationEpochs < 6 {
		t.Errorf("victim violation epochs = %d, want >= 6 from dead windows", s.ViolationEpochs)
	}
	if res.Stats.FailedNodes != 1 || res.Stats.DownEpochs != 3 || res.Stats.Evictions != 0 {
		t.Errorf("fleet incident counters = %+d/%d/%d, want 1/3/0",
			res.Stats.FailedNodes, res.Stats.DownEpochs, res.Stats.Evictions)
	}
	for i, sum := range res.Summaries {
		if i != 2 && sum.Failed {
			t.Errorf("node %d marked failed, only node 2 crashed", i)
		}
	}
	if res.LCAppEpochs == 0 {
		t.Fatal("chaos run left LCAppEpochs unset")
	}
	if vr := res.ViolationRate(); vr <= 0 || vr > 1 {
		t.Errorf("violation rate = %g, want (0,1]", vr)
	}
	if math.IsNaN(res.GlobalES) {
		t.Error("global E_S is NaN")
	}
}

// TestChaosBlackoutIncidents: a whole-node telemetry blackout must flow
// through to the node's controller as dropped-telemetry incidents without
// marking the node failed.
func TestChaosBlackoutIncidents(t *testing.T) {
	res, err := Run(chaosConfig(2, "blackout@6x2/node=3", false), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FailedNodes != 0 || res.Stats.DownEpochs != 0 {
		t.Errorf("blackout marked nodes down: %d failed, %d down epochs",
			res.Stats.FailedNodes, res.Stats.DownEpochs)
	}
	if res.Summaries[3].Incidents == 0 {
		t.Error("blacked-out node recorded no telemetry incidents")
	}
	base, err := Run(fleetConfig(2), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Summaries[3].Incidents <= base.Summaries[3].Incidents {
		t.Errorf("blackout did not add incidents on node 3: %d vs baseline %d",
			res.Summaries[3].Incidents, base.Summaries[3].Incidents)
	}
}

// TestChaosDegradeRuns: a persistent degrade halves the victim's capacity
// mid-run; the node keeps running (not failed, fully measured) and the
// fleet aggregate stays finite.
func TestChaosDegradeRuns(t *testing.T) {
	res, err := Run(chaosConfig(2, "degrade@6+/node=1", false), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summaries[1]
	if s.Failed || s.DownEpochs != 0 {
		t.Errorf("degraded node marked down: Failed=%v DownEpochs=%d", s.Failed, s.DownEpochs)
	}
	if s.Epochs != 10 {
		t.Errorf("degraded node measured %d epochs, want all 10", s.Epochs)
	}
	if math.IsNaN(res.GlobalES) || math.IsInf(res.GlobalES, 0) {
		t.Errorf("global E_S = %g under degrade", res.GlobalES)
	}
}

// TestRunAbsorbsNodeError is the acceptance criterion that a single
// node's simulation error no longer aborts cluster.Run: the broken node
// becomes a failed summary with dead-window accounting and the healthy
// rest of the fleet aggregates normally.
// Under a FleetPlan the broken node's units fail phase by phase, and the
// merge must carry each unit's DownEpochs into the node's summary.
func TestRunAbsorbsNodeError(t *testing.T) {
	for _, plan := range []string{"", "crash@6x3/node=0"} {
		cfg := chaosConfig(2, plan, false)
		// An AppConfig with neither LC nor BE fails sim.New validation.
		cfg.Placement[3] = []sim.AppConfig{{}}
		res, err := Run(cfg, quickOpts())
		if err != nil {
			t.Fatalf("plan %q: fleet run aborted on a single broken node: %v", plan, err)
		}
		s := res.Summaries[3]
		if !s.Failed {
			t.Fatalf("plan %q: broken node not marked Failed", plan)
		}
		if s.DownEpochs != 14 || s.Epochs != 10 {
			t.Errorf("plan %q: broken node DownEpochs=%d Epochs=%d, want 14/10", plan, s.DownEpochs, s.Epochs)
		}
		wantFailed := 1
		if plan != "" {
			wantFailed = 2 // node 0 crashes as well
		}
		if res.Stats.FailedNodes != wantFailed {
			t.Errorf("plan %q: FailedNodes = %d, want %d", plan, res.Stats.FailedNodes, wantFailed)
		}
		if math.IsNaN(res.GlobalES) {
			t.Errorf("plan %q: global E_S is NaN with one absorbed failure", plan)
		}
	}
}

// TestRunDrainsFuturesOnError pins the drain contract: when a shard
// fails, Run still waits for every submitted shard before returning the
// first error — no goroutine may outlive the call.
func TestRunDrainsFuturesOnError(t *testing.T) {
	var calls atomic.Int32
	shardFailHook = func(shard int) error {
		if shard != 0 {
			time.Sleep(10 * time.Millisecond)
		}
		calls.Add(1)
		return errors.New("injected shard failure")
	}
	defer func() { shardFailHook = nil }()
	cfg := fleetConfig(4)
	cfg.SeedPerNode = true // no two nodes group
	if _, err := Run(cfg, quickOpts()); err == nil {
		t.Fatal("injected shard failure did not surface")
	}
	// 8 single-node units over 4 workers.
	want := int32(shardsFor(8, 4))
	if got := calls.Load(); got != want {
		t.Errorf("Run returned after %d of %d shards completed; futures not drained", got, want)
	}
}

// TestNodeCacheDropsErroredEntry is the negative-caching regression: an
// in-flight entry that completes with an error must release its waiters
// and then leave the cache — or, when it was to replace a completed entry,
// put that entry back — so the trajectory is simulated again rather than
// replayed as an empty success.
func TestNodeCacheDropsErroredEntry(t *testing.T) {
	c := NewNodeCache()
	k := cacheKey{s: "k"}
	short, long := []window{{0, 3}}, []window{{0, 7}}
	_, e, _ := c.acquire(k, short)
	if e == nil {
		t.Fatal("fresh key not claimable")
	}
	woke := make(chan trajRecords)
	go func() {
		// Waits on the in-flight claim, then re-examines the entry.
		hit, claim, _ := c.acquire(k, short)
		if claim != nil {
			c.publish(k, claim, trajRecords{{win: window{0, 3}, out: classOut{sum: NodeSummary{Epochs: 3}}}}, nil)
		}
		woke <- hit
	}()
	c.publish(k, e, nil, errors.New("boom"))
	if hit := <-woke; hit != nil {
		t.Error("waiter replayed the errored claim instead of claiming the key itself")
	}
	if n := cacheLen(c); n != 1 {
		t.Fatalf("cache holds %d entries, want the waiter's entry only", n)
	}
	// A failed upgrade restores the completed entry it was to replace.
	_, up, base := c.acquire(k, long)
	if up == nil || len(base) != 1 {
		t.Fatalf("uncovered window did not claim an upgrade (claim %v, base %v)", up, base)
	}
	c.publish(k, up, nil, errors.New("boom"))
	hit, claim, _ := c.acquire(k, short)
	if claim != nil || hit == nil {
		t.Fatal("errored upgrade dropped the entry it replaced")
	}
	if co, ok := hit.get(window{0, 3}); !ok || co.sum.Epochs != 3 {
		t.Errorf("replayed record = %+v, %v; want Epochs 3", co.sum, ok)
	}
	// A successful upgrade sticks and keeps the records it extends.
	_, up, base = c.acquire(k, long)
	if up == nil {
		t.Fatal("key not re-claimable after an errored upgrade")
	}
	c.publish(k, up, trajRecords{{win: window{0, 7}, out: classOut{sum: NodeSummary{Epochs: 7}}}}.union(base), nil)
	hit, claim, _ = c.acquire(k, append(long, short...))
	if claim != nil || hit == nil {
		t.Fatal("upgraded entry does not hold both windows")
	}
}

// scoredChaosConfig is a 1000-node Scored fleet under a 1% persistent
// crash wave with a NodeCache: a fleet whose recurrent node contents group
// heavily, with ~2.5 applications per node (70% LC at quantised loads)
// drawn from seed 3.
func scoredChaosConfig(t *testing.T) Config {
	t.Helper()
	const nodes = 1000
	rng := rand.New(rand.NewSource(3))
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
	plan, err := faults.ParseFleet("crash@4+/nodes=1%")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Spec:           spec,
		Seed:           3,
		NewStrategy:    func(int) sched.Strategy { return arq.Default() },
		Placement:      CanonicalizePlacement(placement),
		NodeCache:      NewNodeCache(),
		StrategyDigest: "arq:default",
		FleetPlan:      plan,
	}
}

// TestGroupedChaosMatchesSlotOrder pins that grouping never moves a bit:
// a grouped, cached chaos run over a fleet where most units recur must
// equal the reference that simulates every (phase, node) slot on its own
// and pools in slot order. A merge that pools class by class instead
// reorders the floating-point sums and fails here.
func TestGroupedChaosMatchesSlotOrder(t *testing.T) {
	cfg := scoredChaosConfig(t)
	// Five epochs: the crash at epoch 4 cuts a second phase.
	opts := core.Options{EpochMs: 500, WarmupMs: 500, DurationMs: 2_000}
	res, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NodesSimulated >= len(cfg.Placement) {
		t.Errorf("%d units simulated for %d nodes; the fleet did not group", res.Stats.NodesSimulated, len(cfg.Placement))
	}
	cfg.NodeCache = nil
	checkAgainstReference(t, res, referenceRun(t, cfg, opts))
}
