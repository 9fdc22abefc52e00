// Package cluster scales the Ah-Q model from one node to a datacenter
// fleet: thousands of simulated nodes, each managed by its own controller
// and strategy instance, with the system entropy aggregated over every
// collocated application in the fleet. The paper defines E_S "in a
// datacenter"; this package is the multi-node reading of that definition,
// and shows how E_S ranks *placements* the same way it ranks schedulers.
//
// Run is one sharded fleet engine for healthy and faulted runs alike. The
// supervisor (supervisor.go) cuts the horizon into phases — a run without
// a FleetPlan is a single phase — and every (phase, node) pair becomes one
// unit: a measurement window of one node trajectory (chaos.go). Units with
// equal content keys are grouped, and units that differ only in their
// window are cut from one trajectory simulation (core.RunHorizons), so
// each distinct trajectory simulates once per Run. A NodeCache
// (nodecache.go) carries trajectories across Runs: its entry holds every
// window one simulation cut, plus every prefix window when the Run had
// several phases, so a later Run cut at other phase boundaries replays
// them instead of simulating again. Trajectories fan out in
// contiguous shards over a bounded worker pool (internal/pool, the same
// implementation the experiment harness uses); every trajectory runs its
// own engine with a private contention-solve memo, and each window is
// condensed into a compact summary plus its entropy samples as the
// trajectory finishes. Records are merged in (phase, node) slot order, so
// a 5000-node fleet fits comfortably in memory and the result is
// byte-identical at every parallelism level.
package cluster

import (
	"fmt"
	"math"
	"slices"
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
	// Seed drives all nodes deterministically, under the SeedPerNode
	// policy.
	Seed int64
	// NewStrategy builds one strategy instance per trajectory simulation.
	// It is called from shard workers, so it must be safe for concurrent
	// calls and must return a fresh instance every time (strategies are
	// stateful). Every unit of one trajectory — equal contents in any
	// phase — shares one simulation, built with the first such unit's node
	// index, so the factory must not depend on the node index.
	NewStrategy func(node int) sched.Strategy
	// Placement assigns the application set to nodes: Placement[i] holds
	// node i's applications. Every node needs at least one application.
	Placement [][]sim.AppConfig
	// RI is the relative importance for the global entropy; 0 means the
	// paper's 0.8.
	RI float64
	// Parallel bounds how many trajectory simulations run simultaneously;
	// <= 0 means runtime.NumCPU(), 1 runs the shards sequentially.
	// Results are merged in slot order, so the output is identical at
	// every parallelism level.
	Parallel int
	// SeedPerNode selects the seed policy. Off (the default), every node
	// runs its applications in canonical order (CanonicalOrder) under a
	// seed derived from Seed and those contents: common random numbers,
	// so equal contents are identical simulations — grouped within a Run
	// and replayed across Runs by a NodeCache. On, node i runs Seed+i over
	// Placement[i] as given: independent stochastic streams per node.
	SeedPerNode bool
	// NodeCache optionally supplies a sweep-scoped cache of simulated
	// node trajectories (nodecache.go): before simulating a trajectory the
	// engine looks up its content-addressed key — every input the
	// simulation reads, bit-exactly — and an entry holding every window
	// the trajectory's units need replays the records the identical
	// computation produced in an earlier Run (or in a racing shard, via
	// single-flight). Byte-identical output by construction; only wall
	// time changes. Requires StrategyDigest.
	NodeCache *NodeCache
	// StrategyDigest declares the identity of what NewStrategy builds —
	// the one simulation input the engine cannot serialise itself, since
	// the factory is opaque. Required when NodeCache is set; the digest
	// must change whenever the strategy's behaviour (type, config,
	// tunables) does.
	StrategyDigest string
	// FleetPlan optionally schedules fleet-scope faults — node crashes,
	// capacity degradations, telemetry blackouts (faults.FleetPlan). The
	// supervisor cuts the horizon at every configuration change, each
	// phase simulates fresh, and aggregation weighs samples by measured
	// epochs with dead windows accounted explicitly (chaos.go).
	// Unresolved plans are resolved against (Seed, len(Placement)).
	FleetPlan *faults.FleetPlan
	// ReplaceEvicted turns on failure-aware re-placement under a
	// FleetPlan: a crashed node's applications are evicted and re-placed
	// onto surviving nodes through the interference scorer, with capped
	// retries, exponential backoff and a churn bound (supervisor.go).
	// Off, a crashed node's applications stay assigned and dead until the
	// node restarts.
	ReplaceEvicted bool
}

// NodeSummary is the compact per-node record the fleet engine keeps in
// place of a full core.Result: the node's run-level entropies and the
// counters fleet-level reporting aggregates.
type NodeSummary struct {
	Node int
	// ELC/EBE/ES are the node's run-level entropies over its pooled
	// samples (in a fault-free run, core.Result.RunELC etc. of the node);
	// NaN when the node had no computable samples.
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
	// window of every unit whose simulation errored, plus the crash
	// coverage under a FleetPlan.
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
	// NodesSimulated counts engines actually driven: one per trajectory
	// the NodeCache did not replay whole.
	NodesSimulated int
	// MemoHits are ticks an engine served without running its contention
	// resolvers (memo hits); Solves are resolver
	// runs (full fixed-point solves, warm-up ticks included). Summed over
	// the engines actually driven, MemoHits + Solves is their tick count.
	MemoHits, Solves uint64
	// NodeCacheHits counts units whose window was replayed from
	// Config.NodeCache instead of being simulated: every unit of a
	// trajectory whose entry held all of their windows.
	NodeCacheHits uint64
	// FailedNodes counts nodes with NodeSummary.Failed set; DownEpochs and
	// Evictions sum the corresponding per-node counters. Deterministic.
	FailedNodes, DownEpochs, Evictions int
}

// Result aggregates a cluster run.
type Result struct {
	// Summaries holds the compact per-node records, in node order.
	Summaries []NodeSummary
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
	// LCAppEpochs is the LC-application-epoch denominator of the
	// violation rate: alive LC app-epochs plus dead LC app-epochs (which
	// all count as violations).
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
// measured LC-application-epoch (dead LC app-epochs count on both sides).
// Zero when the fleet has no LC epochs.
func (r *Result) ViolationRate() float64 {
	if r.LCAppEpochs == 0 {
		return 0
	}
	return float64(r.TotalViolationEpochs) / float64(r.LCAppEpochs)
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

// classOut is one unit's record: the summary template (the merge
// attributes it to every slot the unit covers) and the unit's valid
// entropy samples.
type classOut struct {
	sum NodeSummary
	lc  []entropy.LCSample
	be  []entropy.BESample
}

// shardsFor picks the shard count: enough shards per worker that an
// unlucky slow shard cannot serialise the tail of the run, never more
// shards than trajectories. The count never affects results — every
// record lands at its unit's index however the index space was cut.
func shardsFor(trajs, workers int) int {
	s := workers * 4
	if s > trajs {
		s = trajs
	}
	if s < 1 {
		s = 1
	}
	return s
}

// Run drives every node of the fleet for the same horizon and aggregates,
// through the phased engine (chaos.go): a run without a FleetPlan is a
// one-phase schedule.
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
	if cfg.NodeCache != nil && cfg.StrategyDigest == "" {
		return nil, fmt.Errorf("cluster: NodeCache requires a StrategyDigest (the strategy factory is opaque; declare what it builds)")
	}
	ri := cfg.RI
	if ri == 0 {
		ri = entropy.DefaultRI
	}
	return runPhases(cfg, opts, ri)
}

// runUnits fans the trajectories out over the worker pool in contiguous
// shards and returns the unit records in unit order: each shard writes the
// records of its trajectories' units, which no other shard touches. With
// prefixes set (a Run of more than one phase) every trajectory a shard
// publishes to the NodeCache also carries its prefix windows. A failing
// shard no longer strands its siblings: every future is drained before the
// first error is returned, so no goroutine is left writing the records or
// the collector after Run has handed control back to the caller.
func runUnits(cfg *Config, units []shardUnit, trajs [][]int, prefixes bool) ([]classOut, FleetStats, error) {
	ex := workpool.New(cfg.Parallel)
	stats := &statsCollector{}
	outs := make([]classOut, len(units))
	shards := shardsFor(len(trajs), ex.Workers())
	futs := make([]*workpool.Future[struct{}], 0, shards)
	for s := 0; s < shards; s++ {
		// Contiguous ranges, remainder spread over the leading shards.
		lo := s * len(trajs) / shards
		hi := (s + 1) * len(trajs) / shards
		shard := s
		futs = append(futs, workpool.Submit(ex, func() (struct{}, error) {
			return struct{}{}, runShard(*cfg, shard, units, trajs[lo:hi], prefixes, outs, stats)
		}))
	}
	var firstErr error
	for _, f := range futs {
		if _, err := f.Wait(); err != nil && firstErr == nil {
			firstErr = err
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

// simUnit is one measurement window the engine must deliver: the node
// (for error labels and the strategy factory), its applications,
// capacity, seed, controller options, and an optional node-local
// telemetry-blackout plan. The engine builds one per (phase, node) slot of
// the schedule; units that differ only in their options' horizon are
// windows of one trajectory and are cut from one simulation.
type simUnit struct {
	node     int
	apps     []sim.AppConfig
	spec     machine.Spec
	seed     int64
	opts     core.Options
	blackout *faults.Plan
}

// shardUnit pairs a unit with its window and its trajectory's
// content-addressed NodeCache key; an empty key means uncached (no cache
// configured, or the template is not key-serialisable).
type shardUnit struct {
	key  cacheKey
	win  window
	unit simUnit
}

// shardFailHook, when non-nil, injects a shard-level failure before the
// shard simulates anything. Set only by tests, to exercise runUnits'
// future-drain path — production shards have no error source of their own
// left (simulation failures are absorbed into dead records).
var shardFailHook func(shard int) error

// runShard drives a contiguous range of trajectories, writing each unit's
// record to outs at the unit's index. Without a NodeCache a trajectory is
// one simulation to its longest window. With one, the shard first asks
// the cache for the trajectory's windows (acquire): an entry holding them
// all — from an earlier Run, or a racing shard's — replays them; otherwise
// the shard claims the entry, simulates to its own longest window (and,
// with prefixes, cuts every prefix window too), and publishes the union of
// its records and the entry's before it moves on. A shard therefore never
// holds a claim while it waits on another. A failed simulation no longer
// kills the fleet: the failure is published (the entry goes back to what
// it was, so the trajectory can be simulated again), then each of its
// windows is absorbed into a Failed record carrying saturated dead-window
// samples, and the run continues.
func runShard(cfg Config, shard int, units []shardUnit, trajs [][]int, prefixes bool, outs []classOut, stats *statsCollector) error {
	if shardFailHook != nil {
		if err := shardFailHook(shard); err != nil {
			return err
		}
	}
	var hits, solves, nodeHits uint64
	simulated := 0
	var need []window
	for _, traj := range trajs {
		key := units[traj[0]].key
		var claim *nodeCacheEntry
		var base trajRecords
		if key.s != "" {
			need = need[:0]
			for _, ui := range traj {
				need = append(need, units[ui].win)
			}
			var hit trajRecords
			hit, claim, base = cfg.NodeCache.acquire(key, need)
			if hit != nil {
				for _, ui := range traj {
					outs[ui], _ = hit.get(units[ui].win)
				}
				nodeHits += uint64(len(traj))
				continue
			}
		}
		recs, cs, err := simulateTrajectory(&cfg, units, traj, prefixes && claim != nil)
		if claim != nil {
			if err == nil {
				recs = recs.union(base)
			}
			cfg.NodeCache.publish(key, claim, recs, err)
		}
		for _, ui := range traj {
			if err != nil {
				// Absorb the failure: the node is recorded dead for the
				// whole window instead of aborting every sibling.
				outs[ui] = deadUnitOut(units[ui].unit)
				continue
			}
			outs[ui], _ = recs.get(units[ui].win)
		}
		simulated++
		hits += cs.memoHits
		solves += cs.solves
	}
	stats.add(simulated, hits, solves, nodeHits)
	return nil
}

// classSolveStats carries one simulation's engine solve counters.
type classSolveStats struct {
	memoHits, solves uint64
}

// simulateTrajectory runs one engine and one strategy over the
// trajectory the units idx share (their content is the first unit's) and
// cuts every unit's window from it (core.RunHorizons), with prefixes also
// every prefix window [0,k) up to the longest unit window, condensing each
// window into its record. A blackout plan wraps the engine with the drop
// injector so every application's telemetry vanishes over the planned
// epochs.
func simulateTrajectory(cfg *Config, units []shardUnit, idx []int, prefixes bool) (trajRecords, classSolveStats, error) {
	u := units[idx[0]].unit
	engine, err := sim.New(sim.Config{Spec: u.spec, Seed: u.seed, Apps: uniquify(u.apps)})
	if err != nil {
		return nil, classSolveStats{}, fmt.Errorf("cluster: node %d: %w", u.node, err)
	}
	// The records below copy out everything they keep, so the engine's
	// buffers can go to the next simulation once the solve counters are
	// read.
	defer engine.Release()
	var drive core.Engine = engine
	if !u.blackout.Empty() {
		drive = faults.NewInjector(u.blackout).Engine(engine)
	}
	opts := make([]core.Options, 0, len(idx))
	wins := make([]window, 0, len(idx))
	add := func(o core.Options, w window) {
		if !slices.Contains(wins, w) {
			opts, wins = append(opts, o), append(wins, w)
		}
	}
	longest := 0
	for _, ui := range idx {
		add(units[ui].unit.opts, units[ui].win)
		longest = max(longest, units[ui].win.total)
	}
	if prefixes {
		o := u.opts.WithDefaults()
		for k := 1; k <= longest; k++ {
			p := core.Options{EpochMs: o.EpochMs, RI: o.RI, RecordTimeline: o.RecordTimeline,
				WarmupMs: -1, DurationMs: float64(k) * o.EpochMs}
			var w window
			w.total, w.warm = horizonEpochs(p.WithDefaults())
			add(p, w)
		}
	}
	results, err := core.RunHorizons(drive, cfg.NewStrategy(u.node), opts)
	if err != nil {
		return nil, classSolveStats{}, fmt.Errorf("cluster: node %d: %w", u.node, err)
	}
	recs := make(trajRecords, len(results))
	for k, r := range results {
		recs[k] = windowOut{win: wins[k], out: condense(r)}
	}
	var cs classSolveStats
	cs.memoHits, cs.solves = engine.SolveStats()
	return recs, cs, nil
}

// condense reduces a node result to its record.
func condense(r *core.Result) classOut {
	co := classOut{sum: NodeSummary{
		ELC: r.RunELC, EBE: r.RunEBE, ES: r.RunES,
		Yield:           r.Yield,
		ViolationEpochs: r.TotalViolationEpochs,
		Epochs:          r.Epochs,
		Incidents:       len(r.Incidents),
	}}
	for _, a := range r.Apps {
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
	return co
}

// deadUnitOut condenses a unit whose window could not run into a Failed record
// with saturated dead-window samples, mirroring the clamps core's
// controller applies to starved epoch windows (a dead LC application pins
// its latency at 1000x its target, a dead BE application retains a sliver
// of its solo IPC), so fleet aggregation accounts the dead windows
// explicitly instead of silently shrinking the sample set. Every measured epoch of a dead LC
// application counts as a violation.
func deadUnitOut(u simUnit) classOut {
	o := u.opts.WithDefaults()
	total, warm := horizonEpochs(o)
	measured := total - warm
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
// core's controller applies to epoch windows), so it maximally violates.
func deadLCSample(a sim.AppConfig) entropy.LCSample {
	return entropy.LCSample{
		Name: a.LC.Name, IdealMs: a.LC.IdealP95Ms,
		MeasuredMs: a.LC.QoSTargetMs * 1e3, TargetMs: a.LC.QoSTargetMs,
	}
}

// deadBESample is the saturated entropy sample of a BE application whose
// node is dead: a sliver of its solo IPC (the zero-IPC clamp core's
// controller applies to epoch windows), so E_BE saturates instead of
// erroring.
func deadBESample(a sim.AppConfig) entropy.BESample {
	return entropy.BESample{
		Name: a.BE.Name, SoloIPC: a.BE.SoloIPC, MeasuredIPC: a.BE.SoloIPC * 1e-3,
	}
}
