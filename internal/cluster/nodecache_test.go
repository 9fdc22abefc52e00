package cluster

// NodeCache semantics: a hit must replay the bit-exact record a fresh
// simulation would produce; any differing key component (spec, options,
// seed policy, strategy digest, template) must miss; shards are bounded
// (a full shard stops inserting); and racing single-flight callers must
// resolve to exactly one simulation without tripping the race detector.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ahq/internal/core"
	"ahq/internal/faults"
	"ahq/internal/machine"
	"ahq/internal/sched"
	"ahq/internal/sched/arq"
	"ahq/internal/sched/static"
	"ahq/internal/sim"
)

// cachedFleetConfig is a small CRN fleet whose contents recur: four nodes
// over two templates under the default content-derived seeds.
func cachedFleetConfig(cache *NodeCache) Config {
	a := []sim.AppConfig{lcAt("xapian", 0.5), beApp("stream")}
	b := []sim.AppConfig{lcAt("moses", 0.35), lcAt("silo", 0.2), beApp("fluidanimate")}
	return Config{
		Spec:           machine.DefaultSpec(),
		Seed:           11,
		NewStrategy:    func(int) sched.Strategy { return arq.Default() },
		Placement:      [][]sim.AppConfig{a, b, a, b},
		NodeCache:      cache,
		StrategyDigest: "arq:default",
	}
}

// seedOf is the default seed policy's seed for a node template.
func seedOf(base int64, apps []sim.AppConfig) int64 {
	_, k := orderedTemplate(apps, false)
	return templateSeed(base, apps, k)
}

// TestNodeCacheHitIsBitIdentical pins the core contract: a Run served from
// the cache equals — field for field, float bit for float bit (DeepEqual
// compares float64s exactly) — both the Run that populated the cache and
// an uncached Run.
func TestNodeCacheHitIsBitIdentical(t *testing.T) {
	cache := NewNodeCache()
	first, err := Run(cachedFleetConfig(cache), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.NodeCacheHits != 0 {
		t.Errorf("cold cache produced %d hits", first.Stats.NodeCacheHits)
	}
	second, err := Run(cachedFleetConfig(cache), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.NodeCacheHits != 2 {
		t.Errorf("warm run replayed %d classes, want 2", second.Stats.NodeCacheHits)
	}
	if second.Stats.NodesSimulated != 0 {
		t.Errorf("warm run simulated %d classes, want 0", second.Stats.NodesSimulated)
	}
	uncached, err := Run(cachedFleetConfig(nil), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(deterministicView(first), deterministicView(second)) {
		t.Error("cache hit diverged from the populating run")
	}
	if !reflect.DeepEqual(deterministicView(first), deterministicView(uncached)) {
		t.Error("cached run diverged from the uncached run")
	}
}

// TestNodeCacheDistinctInputsMiss pins the key: runs differing in machine
// spec, controller options, base seed, or strategy digest must not adopt
// each other's records — and, because every input is in the key, their
// results must equal a fresh uncached run of the same configuration.
func TestNodeCacheDistinctInputsMiss(t *testing.T) {
	cache := NewNodeCache()
	if _, err := Run(cachedFleetConfig(cache), quickOpts()); err != nil {
		t.Fatal(err)
	}
	variants := map[string]func() (Config, core.Options){
		"spec": func() (Config, core.Options) {
			cfg := cachedFleetConfig(cache)
			cfg.Spec = machine.Spec{Cores: 12, LLCWays: 20, MemBWUnits: 10, MemBWGBps: 40}
			return cfg, quickOpts()
		},
		"options": func() (Config, core.Options) {
			opts := quickOpts()
			opts.DurationMs += 500
			return cachedFleetConfig(cache), opts
		},
		"seed": func() (Config, core.Options) {
			cfg := cachedFleetConfig(cache)
			cfg.Seed = 77
			return cfg, quickOpts()
		},
		"strategy-digest": func() (Config, core.Options) {
			cfg := cachedFleetConfig(cache)
			cfg.NewStrategy = func(int) sched.Strategy { return static.Unmanaged{} }
			cfg.StrategyDigest = "static:unmanaged"
			return cfg, quickOpts()
		},
	}
	for label, build := range variants {
		t.Run(label, func(t *testing.T) {
			cfg, opts := build()
			shared, err := Run(cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if shared.Stats.NodeCacheHits != 0 {
				t.Errorf("variant %q adopted %d cached records; key is too coarse",
					label, shared.Stats.NodeCacheHits)
			}
			cfg2, opts2 := build()
			cfg2.NodeCache = nil
			fresh, err := Run(cfg2, opts2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(deterministicView(shared), deterministicView(fresh)) {
				t.Errorf("variant %q with shared cache diverged from fresh run", label)
			}
		})
	}
}

// TestNodeCacheRequiresStrategyDigest pins the configuration contract.
func TestNodeCacheRequiresStrategyDigest(t *testing.T) {
	cfg := cachedFleetConfig(NewNodeCache())
	cfg.StrategyDigest = ""
	if _, err := Run(cfg, quickOpts()); err == nil {
		t.Error("NodeCache without StrategyDigest was accepted")
	}
}

// TestNodeCacheBounded pins boundedness at the shard protocol level: once
// a shard reaches capacity, acquire declines to claim a new trajectory
// (nil claim, nil records) instead of inserting, and Len stops growing;
// existing entries still hit and may still be replaced by longer ones.
func TestNodeCacheBounded(t *testing.T) {
	c := NewNodeCache()
	// Drive one shard to capacity with synthetic keys routed to it.
	const hash = 3
	need := []window{{1, 4}}
	recs := trajRecords{{win: need[0]}}
	for i := 0; i < nodeCacheShardMaxEntries; i++ {
		key := cacheKey{s: fmt.Sprintf("k%d", i), hash: hash}
		_, e, _ := c.acquire(key, need)
		if e == nil {
			t.Fatalf("fresh key %q not claimed", key.s)
		}
		c.publish(key, e, recs, nil)
	}
	before := cacheLen(c)
	for i := 0; i < 3; i++ {
		key := cacheKey{s: fmt.Sprintf("overflow%d", i), hash: hash}
		if hit, e, base := c.acquire(key, need); hit != nil || e != nil || base != nil {
			t.Fatalf("full shard accepted key %q", key.s)
		}
	}
	if n := cacheLen(c); n != before {
		t.Errorf("full shard grew: %d -> %d", before, n)
	}
	// Existing entries still hit, and other shards still accept inserts.
	if hit, _, _ := c.acquire(cacheKey{s: "k0", hash: hash}, need); hit == nil {
		t.Error("bounded shard lost an existing entry")
	}
	if _, e, _ := c.acquire(cacheKey{s: "k1", hash: hash}, []window{{0, 9}}); e == nil {
		t.Error("a full shard refused to replace an entry with a longer one")
	} else {
		c.publish(cacheKey{s: "k1", hash: hash}, e, recs, nil)
	}
	if _, e, _ := c.acquire(cacheKey{s: "elsewhere", hash: hash + 1}, need); e == nil {
		t.Error("a full shard blocked inserts into another shard")
	}
}

// TestNodeCacheSingleFlight races many callers on one key: exactly one
// must claim, everyone else must wait and observe the claimant's record.
// Run under -race this also exercises the done-channel publication edge.
func TestNodeCacheSingleFlight(t *testing.T) {
	c := NewNodeCache()
	const callers = 16
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		claims  int
		results []float64 // guarded by mu
	)
	need := []window{{2, 12}}
	want := trajRecords{{win: need[0], out: classOut{sum: NodeSummary{ES: 0.125}}}}
	key := cacheKey{s: "contested"}
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			hit, e, _ := c.acquire(key, need)
			switch {
			case e != nil:
				mu.Lock()
				claims++
				mu.Unlock()
				c.publish(key, e, want, nil)
				hit = want
			case hit == nil:
				t.Error("acquire declined on an empty cache")
				return
			}
			co, _ := hit.get(need[0])
			mu.Lock()
			results = append(results, co.sum.ES)
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()
	if claims != 1 {
		t.Errorf("%d callers claimed the key, want exactly 1", claims)
	}
	if len(results) != callers {
		t.Fatalf("%d results for %d callers", len(results), callers)
	}
	for _, es := range results {
		if es != want[0].out.sum.ES {
			t.Errorf("caller observed ES=%v, want %v", es, want[0].out.sum.ES)
		}
	}
}

// TestNodeCacheConcurrentRuns races two whole fleet Runs sharing one cache
// (the sweep shape) and checks both match the uncached result — under
// -race this exercises the production lookup/claim/wait paths end to end.
func TestNodeCacheConcurrentRuns(t *testing.T) {
	cache := NewNodeCache()
	type out struct {
		res *Result
		err error
	}
	outs := make(chan out, 2)
	for i := 0; i < 2; i++ {
		go func() {
			res, err := Run(cachedFleetConfig(cache), quickOpts())
			outs <- out{res, err}
		}()
	}
	baseline, err := Run(cachedFleetConfig(nil), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		o := <-outs
		if o.err != nil {
			t.Fatal(o.err)
		}
		if !reflect.DeepEqual(deterministicView(baseline), deterministicView(o.res)) {
			t.Error("concurrent cached run diverged from uncached baseline")
		}
	}
}

// TestNodeClassesDigestGrouping is the regression test for digest
// grouping: many templates sharing one name signature but differing in
// load — the shape that made an old within-bucket reflect.DeepEqual
// grouping quadratic — must stay distinct units, while true duplicates
// group, in one linear key pass, with every slot pointing at its unit.
func TestNodeClassesDigestGrouping(t *testing.T) {
	const distinct = 200
	placement := make([][]sim.AppConfig, 0, 2*distinct)
	for i := 0; i < distinct; i++ {
		placement = append(placement, []sim.AppConfig{lcAt("xapian", float64(i+1)/float64(distinct+1))})
	}
	// Second copy of every template: must merge with the first.
	for i := 0; i < distinct; i++ {
		placement = append(placement, []sim.AppConfig{lcAt("xapian", float64(i+1)/float64(distinct+1))})
	}
	cfg := Config{Spec: machine.DefaultSpec(), Placement: placement, Seed: 3}
	total, _ := horizonEpochs(quickOpts().WithDefaults())
	plan := &faults.FleetPlan{}
	sched := supervise(plan, placement, cfg.Spec, false, total)
	units, trajs, slots := groupUnits(&cfg, plan, sched, quickOpts(), 0.8)
	if len(units) != distinct {
		t.Fatalf("grouped %d nodes into %d units, want %d", len(placement), len(units), distinct)
	}
	if len(trajs) != distinct {
		t.Fatalf("grouped %d units into %d trajectories, want %d (one window each)", len(units), len(trajs), distinct)
	}
	if len(slots) != len(placement) {
		t.Fatalf("%d slots for %d nodes", len(slots), len(placement))
	}
	for i, sl := range slots {
		if sl.node != i || sl.unit != i%distinct {
			t.Errorf("slot %d = node %d unit %d, want node %d unit %d", i, sl.node, sl.unit, i, i%distinct)
		}
	}
	for ui, u := range units {
		if u.unit.node != ui {
			t.Errorf("unit %d simulates node %d, want its first slot %d", ui, u.unit.node, ui)
		}
	}
}

// TestCanonicalOrderIsOrderInsensitive pins the placement canonicaliser:
// permutations of one node's contents canonicalise identically, distinct
// contents do not, and already-canonical input is returned unchanged.
func TestCanonicalOrderIsOrderInsensitive(t *testing.T) {
	a := []sim.AppConfig{lcAt("xapian", 0.5), beApp("stream"), lcAt("moses", 0.2)}
	b := []sim.AppConfig{a[2], a[0], a[1]}
	ca, cb := CanonicalOrder(a), CanonicalOrder(b)
	_, ka := orderedTemplate(ca, false)
	_, kb := orderedTemplate(cb, false)
	if ka == nil || kb == nil {
		t.Fatal("catalog templates must be key-serialisable")
	}
	if string(ka) != string(kb) {
		t.Error("permuted node contents canonicalised differently")
	}
	if _, k := orderedTemplate(b, true); string(k) != string(ka) {
		t.Error("canonical template key differs from serialising the canonical order")
	}
	if _, kc := orderedTemplate([]sim.AppConfig{lcAt("xapian", 0.7)}, true); string(kc) == string(ka) {
		t.Error("distinct contents share a canonical key")
	}
	again := CanonicalOrder(ca)
	if &again[0] != &ca[0] {
		t.Error("already-canonical input was copied")
	}
}

// TestTemplateSeedCRN pins the common-random-numbers seed policy: equal
// contents (after canonicalisation) get equal seeds, different contents or
// different base seeds get different ones.
func TestTemplateSeedCRN(t *testing.T) {
	a := CanonicalOrder([]sim.AppConfig{lcAt("xapian", 0.5), beApp("stream")})
	b := CanonicalOrder([]sim.AppConfig{beApp("stream"), lcAt("xapian", 0.5)})
	if seedOf(42, a) != seedOf(42, b) {
		t.Error("equal canonical contents got different seeds")
	}
	if seedOf(42, a) == seedOf(43, a) {
		t.Error("base seed does not perturb template seeds")
	}
	c := []sim.AppConfig{lcAt("xapian", 0.7), beApp("stream")}
	if seedOf(42, a) == seedOf(42, c) {
		t.Error("distinct contents got the same seed")
	}
}

// cacheLen counts the cache's entries, in-flight claims included.
func cacheLen(c *NodeCache) int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}
