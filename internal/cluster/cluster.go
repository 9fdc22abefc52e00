// Package cluster scales the Ah-Q model from one node to a datacenter
// fleet: thousands of simulated nodes, each managed by its own controller
// and strategy instance, with the system entropy aggregated over every
// collocated application in the fleet. The paper defines E_S "in a
// datacenter"; this package is the multi-node reading of that definition,
// and shows how E_S ranks *placements* the same way it ranks schedulers.
//
// Run is a sharded fleet engine: the node index space is cut into
// contiguous shards, shards fan out over a bounded worker pool
// (internal/pool, the same implementation the experiment harness uses),
// and every node runs its own engine with a private contention-solve memo.
// Fleet mixes recur massively across nodes, so whole node simulations are
// collapsed instead: DedupIdenticalNodes within a Run, a NodeCache across
// Runs (nodecache.go). Aggregation is streaming: each shard accumulates
// run-level entropy samples and compact per-node summaries as its nodes
// finish, per-node core.Results are discarded by default (KeepResults
// retains them), and shard accumulators are merged in node order — so a
// 5000-node fleet fits comfortably in memory and the result is
// byte-identical at every parallelism level.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"ahq/internal/core"
	"ahq/internal/entropy"
	"ahq/internal/faults"
	"ahq/internal/machine"
	workpool "ahq/internal/pool"
	"ahq/internal/sched"
	"ahq/internal/sim"
	"ahq/internal/workload"
)

// Config describes a homogeneous cluster run.
type Config struct {
	// Spec is each node's capacity.
	Spec machine.Spec
	// Seed drives all nodes deterministically (node i uses Seed+i).
	Seed int64
	// NewStrategy builds one strategy instance per node. It is called from
	// shard workers, so it must be safe for concurrent calls and must
	// return a fresh instance every time (strategies are stateful).
	NewStrategy func(node int) sched.Strategy
	// Placement assigns the application set to nodes: Placement[i] holds
	// node i's applications. Every node needs at least one application.
	Placement [][]sim.AppConfig
	// RI is the relative importance for the global entropy; 0 means the
	// paper's 0.8.
	RI float64
	// Parallel bounds how many node simulations run simultaneously;
	// <= 0 means runtime.NumCPU(), 1 runs the shards sequentially.
	// Results are merged in node order, so the output is identical at
	// every parallelism level.
	Parallel int
	// NodeSeed optionally overrides the per-node seed policy; nil means
	// node i runs with Seed+i (independent stochastic streams per node).
	// Screening runs that want common random numbers across replicated
	// node templates supply a policy returning equal seeds for equal
	// templates.
	NodeSeed func(node int) int64
	// DedupIdenticalNodes opts into fleet-level node memoisation: nodes
	// whose seed and application template coincide — possible only under a
	// NodeSeed policy assigning equal seeds — are provably bit-identical
	// simulations, so the engine runs one representative per equivalence
	// class and replicates its summary and samples to every member. The
	// aggregate is byte-identical to simulating every node (pinned by
	// TestDedupMatchesFullSimulation); only wall time changes. Requires
	// NewStrategy to return node-index-agnostic strategies, and under
	// KeepResults the members of a class share one *core.Result.
	DedupIdenticalNodes bool
	// NodeCache optionally supplies a sweep-scoped cache of completed
	// node simulations (nodecache.go): before simulating a class
	// representative the engine looks up the class's content-addressed
	// key — every input the simulation reads, bit-exactly — and a hit
	// replays the record the identical computation produced in an earlier
	// Run (or in a racing shard, via single-flight). Byte-identical
	// output by construction; only wall time changes. Requires
	// StrategyDigest and is rejected together with KeepResults (cached
	// records deliberately do not retain full per-node results).
	NodeCache *NodeCache
	// StrategyDigest declares the identity of what NewStrategy builds —
	// the one node-simulation input the engine cannot serialise itself,
	// since the factory is opaque. Required when NodeCache is set; the
	// digest must change whenever the strategy's behaviour (type, config,
	// tunables) does, and the factory must return node-index-agnostic
	// instances, exactly as DedupIdenticalNodes already requires.
	StrategyDigest string
	// KeepResults retains the full per-node core.Result in Result.Nodes.
	// Off by default: at fleet scale the per-node results dominate memory,
	// and the compact NodeSummary carries everything aggregation needs.
	KeepResults bool
	// FleetPlan optionally schedules fleet-scope faults — node crashes,
	// capacity degradations, telemetry blackouts (faults.FleetPlan). A
	// non-empty plan switches Run to the phased chaos engine (chaos.go):
	// the supervisor cuts the horizon at every configuration change, each
	// phase simulates fresh, and aggregation weighs samples by measured
	// epochs with dead windows accounted explicitly. Unresolved plans are
	// resolved against (Seed, len(Placement)). Incompatible with NodeSeed
	// (chaos seeds content-wise via TemplateSeed) and KeepResults (phases
	// do not produce one core.Result per node).
	FleetPlan *faults.FleetPlan
	// ReplaceEvicted turns on failure-aware re-placement under a
	// FleetPlan: a crashed node's applications are evicted and re-placed
	// onto surviving nodes through the interference scorer, with capped
	// retries, exponential backoff and a churn bound (supervisor.go).
	// Off, a crashed node's applications stay assigned and dead until the
	// node restarts.
	ReplaceEvicted bool
}

// NodeResult pairs one node's full controller outcome with its index
// (retained only under Config.KeepResults).
type NodeResult struct {
	Node   int
	Result *core.Result
}

// NodeSummary is the compact per-node record the fleet engine keeps in
// place of a full core.Result: the node's run-level entropies and the
// counters fleet-level reporting aggregates.
type NodeSummary struct {
	Node int
	// ELC/EBE/ES are the node's run-level entropies (core.Result.RunELC
	// etc.); NaN-free only when the node had computable samples.
	ELC, EBE, ES float64
	// Yield is the node-local satisfied fraction of its LC applications.
	Yield float64
	// LCApps and BEApps count the node's applications by class.
	LCApps, BEApps int
	// ViolationEpochs sums LC violation epochs over the node's apps.
	ViolationEpochs int
	// Epochs counts the node's measured monitoring intervals (simulated
	// alive epochs only; dead windows are accounted via ViolationEpochs
	// and the fleet's LCAppEpochs, never as measured intervals).
	Epochs int
	// Incidents counts degradation events the node's controller survived.
	Incidents int
	// Failed marks a node that did not run healthy to completion: its
	// simulation errored (the fleet engine absorbs the error into
	// saturated dead-window samples instead of aborting the run), or a
	// FleetPlan crashed it at some epoch.
	Failed bool
	// DownEpochs counts epochs (warm-up included) the node was dead: the
	// whole horizon for an errored node, the crash coverage under a
	// FleetPlan.
	DownEpochs int
	// Evictions counts applications the supervisor evicted from this node
	// at its crash epochs (ReplaceEvicted only).
	Evictions int
}

// FleetStats aggregates fleet-wide counters. The solve/cache counters
// depend on worker scheduling (which shard reached a NodeCache key first),
// so they are for benchmarks and logs, never deterministic output. The
// incident counters (FailedNodes, DownEpochs, Evictions) are derived from
// the per-node summaries and ARE deterministic.
type FleetStats struct {
	// NodesRun counts the fleet's logical nodes.
	NodesRun int
	// NodesSimulated counts engines actually driven: equal to NodesRun
	// except under DedupIdenticalNodes, where it is the number of node
	// equivalence classes.
	NodesSimulated int
	// MemoHits are per-engine memo hits, Solves are full fixed-point
	// solves, summed over the engines actually driven.
	MemoHits, Solves uint64
	// NodeCacheHits counts node classes whose simulation was replayed
	// from Config.NodeCache instead of being run.
	NodeCacheHits uint64
	// FailedNodes counts nodes with NodeSummary.Failed set; DownEpochs and
	// Evictions sum the corresponding per-node counters. Deterministic.
	FailedNodes, DownEpochs, Evictions int
}

// Result aggregates a cluster run.
type Result struct {
	// Summaries holds the compact per-node records, in node order.
	Summaries []NodeSummary
	// Nodes holds the full per-node controller results, only when
	// Config.KeepResults; empty otherwise.
	Nodes []NodeResult
	// GlobalELC/GlobalEBE/GlobalES are computed over the pooled run-level
	// samples of every application in the cluster — the datacenter-wide
	// E_S of the paper's definition.
	GlobalELC, GlobalEBE, GlobalES float64
	// GlobalYield is the satisfied fraction over all LC applications.
	// Meaningful only when YieldDefined; a fleet with no LC samples has no
	// yield (GlobalYield stays 0 and YieldDefined false).
	GlobalYield float64
	// YieldDefined reports whether GlobalYield was computable.
	YieldDefined bool
	// TotalViolationEpochs sums LC violation epochs over every node.
	TotalViolationEpochs int
	// MeasuredEpochs sums the per-node measured monitoring intervals.
	MeasuredEpochs int
	// LCAppEpochs is the explicit LC-application-epoch denominator the
	// chaos engine maintains: alive LC app-epochs plus dead LC app-epochs
	// (which all count as violations). Zero outside chaos runs — the
	// legacy path derives the denominator from the summaries.
	LCAppEpochs int
	// Evictions/Replacements/Abandoned count the supervisor's actions
	// under a FleetPlan with ReplaceEvicted; MeanRecoveryEpochs averages
	// eviction-to-re-placement latency over successful re-placements.
	Evictions, Replacements, Abandoned int
	MeanRecoveryEpochs                 float64
	// Stats carries fleet-wide work counters.
	Stats FleetStats
}

// ViolationRate is the fleet's LC violation fraction: violation epochs per
// measured LC-application-epoch. Zero when the fleet has no LC epochs.
// Chaos runs carry the denominator explicitly (dead LC app-epochs count on
// both sides); otherwise it derives from the per-node summaries.
func (r *Result) ViolationRate() float64 {
	lcEpochs := r.LCAppEpochs
	if lcEpochs == 0 {
		for i := range r.Summaries {
			lcEpochs += r.Summaries[i].Epochs * r.Summaries[i].LCApps
		}
	}
	if lcEpochs == 0 {
		return 0
	}
	return float64(r.TotalViolationEpochs) / float64(lcEpochs)
}

// statsCollector accumulates FleetStats across shard workers.
type statsCollector struct {
	mu    sync.Mutex
	stats FleetStats // guarded by mu
}

// add merges one shard's counters.
func (c *statsCollector) add(simulated int, hits, solves, nodeHits uint64) {
	c.mu.Lock()
	c.stats.NodesSimulated += simulated
	c.stats.MemoHits += hits
	c.stats.Solves += solves
	c.stats.NodeCacheHits += nodeHits
	c.mu.Unlock()
}

// snapshot returns the accumulated counters.
func (c *statsCollector) snapshot() FleetStats {
	c.mu.Lock()
	s := c.stats
	c.mu.Unlock()
	return s
}

// nodeClass is one simulation equivalence class: the representative node
// index, its seed, its canonical template serialisation (empty when the
// template is not key-serialisable or no consumer needs it), and every
// node the class covers. Without dedup each node is its own singleton
// class, so the class list IS the node list.
type nodeClass struct {
	rep      int
	seed     int64
	template string
	members  []int
}

// nodeSeed applies the configured per-node seed policy.
func nodeSeed(cfg *Config, i int) int64 {
	if cfg.NodeSeed != nil {
		return cfg.NodeSeed(i)
	}
	return cfg.Seed + int64(i)
}

// nodeClasses groups the fleet into simulation classes by canonical
// template digest: two nodes land in one class exactly when their seeds
// match and their templates serialise to the same full key — the digest IS
// the complete serialisation, compared by map-key equality, so grouping is
// collision-safe without any deep-equality confirmation pass and the scan
// is O(total template size) instead of the old quadratic within-bucket
// reflect.DeepEqual walk. Nodes whose template is not key-serialisable are
// never grouped (each stays a singleton class, the conservative reading).
// Grouping scans nodes in ascending order and always elects the lowest
// member as the representative, so the class list — and therefore
// everything downstream — is deterministic for a fixed configuration.
// Template keys are retained on the classes when the Run carries a
// NodeCache, which shares this exact serialisation machinery.
func nodeClasses(cfg *Config) []nodeClass {
	n := len(cfg.Placement)
	needKeys := cfg.NodeCache != nil
	classes := make([]nodeClass, 0, n)
	if !cfg.DedupIdenticalNodes {
		for i := 0; i < n; i++ {
			c := nodeClass{rep: i, seed: nodeSeed(cfg, i), members: []int{i}}
			if needKeys {
				if k, ok := templateKey(cfg.Placement[i]); ok {
					c.template = string(k)
				}
			}
			classes = append(classes, c)
		}
		return classes
	}
	type bucketKey struct {
		seed     int64
		template string
	}
	buckets := make(map[bucketKey]int, n)
	for i := 0; i < n; i++ {
		seed := nodeSeed(cfg, i)
		k, ok := templateKey(cfg.Placement[i])
		if !ok {
			classes = append(classes, nodeClass{rep: i, seed: seed, members: []int{i}})
			continue
		}
		bk := bucketKey{seed, string(k)}
		if ci, dup := buckets[bk]; dup {
			classes[ci].members = append(classes[ci].members, i)
			continue
		}
		buckets[bk] = len(classes)
		classes = append(classes, nodeClass{rep: i, seed: seed, template: bk.template, members: []int{i}})
	}
	if !needKeys {
		// The serialisations were only grouping scratch; do not retain
		// them past classing.
		for i := range classes {
			classes[i].template = ""
		}
	}
	return classes
}

// classOut is one simulated class's streaming record: the summary
// template (Node is stamped per member at merge), the class's valid
// entropy samples, and the full result when kept.
type classOut struct {
	sum NodeSummary
	lc  []entropy.LCSample
	be  []entropy.BESample
	res *core.Result // populated only under Config.KeepResults
}

// shardAccum is one shard's streaming accumulator: class records for a
// contiguous class range, appended in class order as each representative
// finishes and its full result is dropped.
type shardAccum struct {
	outs []classOut
}

// shardsFor picks the shard count: enough shards per worker that an
// unlucky slow shard cannot serialise the tail of the run, never more
// shards than nodes. The count never affects results — shard accumulators
// are merged in node order regardless of how the index space was cut.
func shardsFor(nodes, workers int) int {
	s := workers * 4
	if s > nodes {
		s = nodes
	}
	if s < 1 {
		s = 1
	}
	return s
}

// Run drives every node of the fleet for the same horizon and aggregates.
// With a non-empty Config.FleetPlan the run goes through the phased chaos
// engine (chaos.go) instead of the single-segment path below.
func Run(cfg Config, opts core.Options) (*Result, error) {
	if len(cfg.Placement) == 0 {
		return nil, fmt.Errorf("cluster: empty placement")
	}
	if cfg.NewStrategy == nil {
		return nil, fmt.Errorf("cluster: no strategy factory")
	}
	for i, apps := range cfg.Placement {
		if len(apps) == 0 {
			return nil, fmt.Errorf("cluster: node %d has no applications", i)
		}
	}
	if cfg.NodeCache != nil {
		if cfg.StrategyDigest == "" {
			return nil, fmt.Errorf("cluster: NodeCache requires a StrategyDigest (the strategy factory is opaque; declare what it builds)")
		}
		if cfg.KeepResults {
			return nil, fmt.Errorf("cluster: NodeCache cannot be combined with KeepResults (cached records do not retain full per-node results)")
		}
	}
	if !cfg.FleetPlan.Empty() {
		if cfg.NodeSeed != nil {
			return nil, fmt.Errorf("cluster: FleetPlan cannot be combined with NodeSeed (chaos phases seed content-wise via TemplateSeed)")
		}
		if cfg.KeepResults {
			return nil, fmt.Errorf("cluster: FleetPlan cannot be combined with KeepResults (phases do not produce one core.Result per node)")
		}
	}
	ri := cfg.RI
	if ri == 0 {
		ri = entropy.DefaultRI
	}
	if !cfg.FleetPlan.Empty() {
		return runChaos(cfg, opts, ri)
	}

	n := len(cfg.Placement)
	classes := nodeClasses(&cfg)
	classOf := make([]int, n)
	for ci, c := range classes {
		for _, m := range c.members {
			classOf[m] = ci
		}
	}
	var keyPrefix []byte
	if cfg.NodeCache != nil {
		keyPrefix = nodeKeyPrefix(&cfg, opts, ri)
	}
	units := make([]shardUnit, len(classes))
	for ci, c := range classes {
		units[ci] = shardUnit{unit: simUnit{
			node: c.rep, apps: cfg.Placement[c.rep],
			spec: cfg.Spec, seed: c.seed, opts: opts,
		}}
		if cfg.NodeCache != nil && c.template != "" {
			units[ci].key = nodeKey(keyPrefix, c.seed, c.template)
		}
	}
	outs, stats, err := runUnits(&cfg, units)
	if err != nil {
		return nil, err
	}

	// Expand class records to nodes in node order — the merge is invariant
	// to shard count and scheduling.
	res := &Result{Summaries: make([]NodeSummary, 0, n)}
	var lcAll []entropy.LCSample
	var beAll []entropy.BESample
	for i := 0; i < n; i++ {
		co := &outs[classOf[i]]
		sum := co.sum
		sum.Node = i
		res.Summaries = append(res.Summaries, sum)
		lcAll = append(lcAll, co.lc...)
		beAll = append(beAll, co.be...)
		res.TotalViolationEpochs += sum.ViolationEpochs
		res.MeasuredEpochs += sum.Epochs
		if cfg.KeepResults {
			res.Nodes = append(res.Nodes, NodeResult{Node: i, Result: co.res})
		}
	}

	elc, ebe, es, err := entropy.System{RI: ri}.Compute(lcAll, beAll)
	if err != nil {
		return nil, fmt.Errorf("cluster: global entropy: %w", err)
	}
	res.GlobalELC, res.GlobalEBE, res.GlobalES = elc, ebe, es
	// An absent-LC fleet legitimately has no yield; anything else failing
	// here is a real error and must not silently leave GlobalYield at 0.
	switch y, err := entropy.Yield(lcAll); {
	case err == nil:
		res.GlobalYield, res.YieldDefined = y, true
	case errors.Is(err, entropy.ErrNoSamples):
		// BE-only fleet: recorded explicitly via YieldDefined == false.
	default:
		return nil, fmt.Errorf("cluster: global yield: %w", err)
	}
	res.Stats = stats
	res.Stats.NodesRun = n
	addIncidentCounters(res)
	return res, nil
}

// addIncidentCounters derives the deterministic fleet incident counters
// from the merged per-node summaries.
func addIncidentCounters(res *Result) {
	for i := range res.Summaries {
		s := &res.Summaries[i]
		if s.Failed {
			res.Stats.FailedNodes++
		}
		res.Stats.DownEpochs += s.DownEpochs
		res.Stats.Evictions += s.Evictions
	}
}

// runUnits fans the unit list out over the worker pool in contiguous
// shards and returns the unit records in unit order. A failing shard no
// longer strands its siblings: every future is drained before the first
// error is returned, so no goroutine is left writing the collector after
// Run has handed control back to the caller.
func runUnits(cfg *Config, units []shardUnit) ([]classOut, FleetStats, error) {
	ex := workpool.New(cfg.Parallel)
	stats := &statsCollector{}
	shards := shardsFor(len(units), ex.Workers())
	futs := make([]*workpool.Future[*shardAccum], 0, shards)
	for s := 0; s < shards; s++ {
		// Contiguous ranges, remainder spread over the leading shards.
		lo := s * len(units) / shards
		hi := (s + 1) * len(units) / shards
		shard := s
		futs = append(futs, workpool.Submit(ex, func() (*shardAccum, error) {
			return runShard(*cfg, shard, units[lo:hi], stats)
		}))
	}
	outs := make([]classOut, 0, len(units))
	var firstErr error
	for _, f := range futs {
		acc, err := f.Wait()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if firstErr == nil {
			outs = append(outs, acc.outs...)
		}
	}
	if firstErr != nil {
		return nil, FleetStats{}, firstErr
	}
	return outs, stats.snapshot(), nil
}

// uniquify disambiguates duplicate workload names on one node with an
// instance suffix ("xapian", "xapian#2", ...). Fleet populations replicate
// a small catalog of service templates, so placements routinely co-locate
// two instances of the same template; the engine requires distinct names.
// Renaming copies the workload struct — the name never enters any
// numeric path, so renamed instances simulate exactly like
// identically-named apps would. Placements with unique names pass through
// untouched.
func uniquify(apps []sim.AppConfig) []sim.AppConfig {
	seen := make(map[string]int, len(apps))
	out := apps
	for i, a := range apps {
		name := a.Name()
		seen[name]++
		n := seen[name]
		if n == 1 {
			continue
		}
		if &out[0] == &apps[0] {
			out = append([]sim.AppConfig(nil), apps...)
		}
		switch {
		case a.LC != nil:
			lc := *a.LC
			lc.Name = fmt.Sprintf("%s#%d", name, n)
			out[i].LC = &lc
		case a.BE != nil:
			be := *a.BE
			be.Name = fmt.Sprintf("%s#%d", name, n)
			out[i].BE = &be
		}
	}
	return out
}

// simUnit is one node simulation the engine must run: the node (for error
// labels and the strategy factory), its applications, capacity, seed,
// controller options, and an optional node-local telemetry-blackout plan.
// The legacy path builds one unit per node class over the run's shared
// spec and options; the chaos engine builds one per (phase, node).
type simUnit struct {
	node     int
	apps     []sim.AppConfig
	spec     machine.Spec
	seed     int64
	opts     core.Options
	blackout *faults.Plan
}

// shardUnit pairs a unit with its content-addressed NodeCache key; an
// empty key means uncached (no cache configured, or the template is not
// key-serialisable).
type shardUnit struct {
	key  cacheKey
	unit simUnit
}

// shardFailHook, when non-nil, injects a shard-level failure before the
// shard simulates anything. Set only by tests, to exercise runUnits'
// future-drain path — production shards have no error source of their own
// left (unit failures are absorbed into dead records).
var shardFailHook func(shard int) error

// runShard drives a contiguous range of units, streaming each unit's
// record into the shard accumulator. With a NodeCache configured each
// keyed unit first resolves its content-addressed key: a published entry
// replays the identical simulation's record, an in-flight entry is waited
// on (a racing shard — possibly of another Run sharing the cache — is
// computing this exact unit right now), and otherwise the shard simulates
// the unit itself, publishing the outcome when it claimed the key. A unit
// whose simulation errors no longer kills the fleet: the error is
// published (and its cache entry dropped, so the key can be re-simulated),
// then absorbed into a Failed record carrying saturated dead-window
// samples, and the run continues. Full per-node results are dropped unless
// the configuration keeps them.
func runShard(cfg Config, shard int, units []shardUnit, stats *statsCollector) (*shardAccum, error) {
	if shardFailHook != nil {
		if err := shardFailHook(shard); err != nil {
			return nil, err
		}
	}
	acc := &shardAccum{outs: make([]classOut, 0, len(units))}
	var hits, solves, nodeHits uint64
	simulated := 0
	for _, su := range units {
		var entry *nodeCacheEntry
		if su.key.s != "" {
			if e, ok := cfg.NodeCache.lookup(su.key); ok {
				if co, err := e.wait(); err == nil {
					acc.outs = append(acc.outs, co)
					nodeHits++
					continue
				}
				// The claimant's simulation failed and its entry was
				// dropped; fall through and re-simulate locally.
			}
			if e, claimed := cfg.NodeCache.claim(su.key); claimed {
				entry = e
			} else if e != nil {
				// Lost the claim race: adopt the racer's record, unless
				// the racer failed — then simulate unpublished.
				if co, err := e.wait(); err == nil {
					acc.outs = append(acc.outs, co)
					nodeHits++
					continue
				}
			}
			// entry == nil here means the shard was full or a racer
			// failed: simulate without publishing.
		}
		co, cs, err := simulateUnit(&cfg, su.unit)
		if entry != nil {
			cfg.NodeCache.publish(su.key, entry, co, err)
		}
		if err != nil {
			// Absorb the failure: the node is recorded dead for the whole
			// unit horizon instead of aborting every sibling simulation.
			co = deadUnitOut(su.unit)
		}
		acc.outs = append(acc.outs, co)
		simulated++
		hits += cs.memoHits
		solves += cs.solves
	}
	stats.add(simulated, hits, solves, nodeHits)
	return acc, nil
}

// classSolveStats carries one simulated unit's engine solve counters.
type classSolveStats struct {
	memoHits, solves uint64
}

// simulateUnit runs one unit's simulation end to end and condenses it into
// its record. A blackout plan wraps the engine with the PR 4 drop injector
// so every application's telemetry vanishes over the planned epochs.
func simulateUnit(cfg *Config, u simUnit) (classOut, classSolveStats, error) {
	engine, err := sim.New(sim.Config{Spec: u.spec, Seed: u.seed, Apps: uniquify(u.apps)})
	if err != nil {
		return classOut{}, classSolveStats{}, fmt.Errorf("cluster: node %d: %w", u.node, err)
	}
	var drive core.Engine = engine
	if !u.blackout.Empty() {
		drive = faults.NewInjector(u.blackout).Engine(engine)
	}
	nodeRes, err := core.Run(drive, cfg.NewStrategy(u.node), u.opts)
	if err != nil {
		return classOut{}, classSolveStats{}, fmt.Errorf("cluster: node %d: %w", u.node, err)
	}
	co := classOut{sum: NodeSummary{
		ELC: nodeRes.RunELC, EBE: nodeRes.RunEBE, ES: nodeRes.RunES,
		Yield:           nodeRes.Yield,
		ViolationEpochs: nodeRes.TotalViolationEpochs,
		Epochs:          nodeRes.Epochs,
		Incidents:       len(nodeRes.Incidents),
	}}
	for _, a := range nodeRes.Apps {
		if a.Spec.Class == workload.LC {
			co.sum.LCApps++
			if a.LCSample.Validate() == nil {
				co.lc = append(co.lc, a.LCSample)
			}
		} else {
			co.sum.BEApps++
			if a.BESample.Validate() == nil {
				co.be = append(co.be, a.BESample)
			}
		}
	}
	if cfg.KeepResults {
		co.res = nodeRes
	}
	var cs classSolveStats
	cs.memoHits, cs.solves = engine.SolveStats()
	return co, cs, nil
}

// deadUnitOut condenses a unit that could not run into a Failed record
// with saturated dead-window samples, mirroring the clamps of
// core.SamplesFromWindows (a dead LC application pins its latency at
// 1000x its target, a dead BE application retains a sliver of its solo
// IPC), so fleet aggregation accounts the dead windows explicitly instead
// of silently shrinking the sample set. Every measured epoch of a dead LC
// application counts as a violation.
func deadUnitOut(u simUnit) classOut {
	o := u.opts.WithDefaults()
	total := int(math.Ceil((o.WarmupMs + o.DurationMs) / o.EpochMs))
	measured := total - int(math.Ceil(o.WarmupMs/o.EpochMs))
	co := classOut{sum: NodeSummary{
		Failed: true, DownEpochs: total, Epochs: measured,
	}}
	for _, a := range uniquify(u.apps) {
		if a.LC != nil {
			co.sum.LCApps++
			co.lc = append(co.lc, deadLCSample(a))
		} else if a.BE != nil {
			co.sum.BEApps++
			co.be = append(co.be, deadBESample(a))
		}
	}
	co.sum.ViolationEpochs = measured * co.sum.LCApps
	if elc, ebe, es, err := (entropy.System{RI: o.RI}).Compute(co.lc, co.be); err == nil {
		co.sum.ELC, co.sum.EBE, co.sum.ES = elc, ebe, es
	} else {
		co.sum.ELC, co.sum.EBE, co.sum.ES = math.NaN(), math.NaN(), math.NaN()
	}
	return co
}

// deadLCSample is the saturated entropy sample of an LC application whose
// node is dead: latency clamped at 1000x its target (the starvation clamp
// of core.SamplesFromWindows), so it maximally violates.
func deadLCSample(a sim.AppConfig) entropy.LCSample {
	return entropy.LCSample{
		Name: a.LC.Name, IdealMs: a.LC.IdealP95Ms,
		MeasuredMs: a.LC.QoSTargetMs * 1e3, TargetMs: a.LC.QoSTargetMs,
	}
}

// deadBESample is the saturated entropy sample of a BE application whose
// node is dead: a sliver of its solo IPC (the zero-IPC clamp of
// core.SamplesFromWindows), so E_BE saturates instead of erroring.
func deadBESample(a sim.AppConfig) entropy.BESample {
	return entropy.BESample{
		Name: a.BE.Name, SoloIPC: a.BE.SoloIPC, MeasuredIPC: a.BE.SoloIPC * 1e-3,
	}
}
