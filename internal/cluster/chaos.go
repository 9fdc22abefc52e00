package cluster

// The phased engine runs every fleet. It simulates the fleet as a sequence
// of *phases* — maximal epoch ranges over which the fleet's configuration
// is constant (supervisor.go cuts one at every crash, restart, degrade
// flip and re-placement a faults.FleetPlan causes; a run without a plan is
// a single phase) — and each (phase, node) slot becomes one unit: the
// node's applications at that time, its (possibly degraded) capacity, its
// blackout coverage lowered to a node-local telemetry-drop plan, and its
// measurement window. A phase spanning the whole horizon runs the caller's
// controller options verbatim; otherwise a phase overlapping the warm-up
// window carries the overlap as its own warm-up, and later phases run
// unwarmed.
//
// The phased model deliberately drops cross-phase node state (queue
// backlogs, strategy learning do not survive a boundary): a phase is a
// fresh steady-state estimate of the configuration it covers, which is
// exactly the quantity fleet-level E_S aggregation needs, and what keeps
// every unit a pure function of its content. Units with equal content keys
// are therefore one unit, simulated once per Run. Units whose content
// differs only in the window are one *trajectory*: equal contents share a
// seed, so their simulations are the same from the first tick, and the
// window decides only where measurement starts and stops
// (core.RunHorizons). Each trajectory is simulated once, to its longest
// window, and every unit's record is cut from it — a node whose contents
// survive a crash phase boundary elsewhere in the fleet is simulated once,
// not once per phase.
//
// The NodeCache carries trajectories across Runs. A fault sweep runs one
// population under many plans, and each plan cuts a surviving node's
// trajectory at its own boundaries: the phase after a crash at epoch c of
// an h-epoch run is the window [0, h-c) of the node's trajectory. So a
// Run of more than one phase publishes, beside the windows it needed,
// every prefix window [0,k) up to the longest it simulated, and a later
// plan's Run replays its windows from that entry instead of re-simulating
// the trajectory (nodecache.go). A one-phase Run only ever asks for the
// whole-horizon window and publishes no prefixes.
//
// Aggregation pools run-level samples over every slot in (phase, node)
// order, whatever the grouping, so grouping and caching never move a bit
// and output is byte-identical at every -parallel level. Samples are
// weighted by their phase's measured epochs (entropy.WeightedSystem),
// except in a one-phase schedule, where every weight is 1 and the weighted
// means reduce exactly to entropy.System and entropy.Yield. Dead windows
// are accounted explicitly: an application on a crashed node
// (no-replace), or evicted and not yet — or never — re-placed, contributes
// a saturated sample weighted like the phase's units, and each such LC
// app-epoch counts as a violation. The sample set never silently shrinks
// because a node died.

import (
	"fmt"
	"math"

	"ahq/internal/core"
	"ahq/internal/entropy"
	"ahq/internal/faults"
	"ahq/internal/machine"
	"ahq/internal/sim"
)

// unitRef addresses one (phase, node) slot of the schedule.
type unitRef struct {
	phase, node int
}

// unitSlot is one (phase, node) slot in merge order: its node, the index
// of the unit that simulates it, and the phase's measured epochs.
type unitSlot struct {
	node, unit, measured int
}

// groupUnits enumerates the schedule's slots and groups them twice. Slots
// with equal unit keys share one unit — one measurement window, one record.
// Units with equal trajectory keys (the unit key less the horizon) share
// one trajectory: one simulation from which every unit's window is cut,
// and one NodeCache entry. Units and trajectories are numbered by first
// appearance, so the grouping is a deterministic function of the
// configuration; each trajectory lists its units in that order.
func groupUnits(cfg *Config, plan *faults.FleetPlan, sched *fleetSchedule, opts core.Options, ri float64) ([]shardUnit, [][]int, []unitSlot) {
	var units []shardUnit
	var trajs [][]int
	var slots []unitSlot
	index := make(map[string]int)
	trajIndex := make(map[string]int)
	phaseUnits(cfg, plan, sched, opts, ri, func(ref unitRef, u simUnit, key, traj []byte, hash uint64, measured int) {
		ui, dup := index[string(key)]
		if !dup {
			ui = len(units)
			su := shardUnit{unit: u}
			su.win.total, su.win.warm = horizonEpochs(u.opts.WithDefaults())
			ti := len(trajs)
			if key != nil {
				ks := string(key)
				index[ks] = ui
				ts := ks[len(key)-len(traj):]
				if t, ok := trajIndex[ts]; ok {
					ti = t
				} else {
					trajIndex[ts] = ti
				}
				if cfg.NodeCache != nil {
					su.key = cacheKey{s: ts, hash: hash}
				}
			}
			if ti == len(trajs) {
				trajs = append(trajs, nil)
			}
			trajs[ti] = append(trajs[ti], ui)
			units = append(units, su)
		}
		slots = append(slots, unitSlot{node: ref.node, unit: ui, measured: measured})
	})
	return units, trajs, slots
}

// horizonEpochs splits post-default options into the run's total epochs
// (warm-up included) and its warm-up epochs.
func horizonEpochs(o core.Options) (total, warm int) {
	total = int(math.Ceil((o.WarmupMs + o.DurationMs) / o.EpochMs))
	warm = int(math.Ceil(o.WarmupMs / o.EpochMs))
	return total, warm
}

// runPhases drives the fleet through its phase schedule. cfg has been
// validated by Run (placement non-empty, strategy present, NodeCache
// implies StrategyDigest).
func runPhases(cfg Config, opts core.Options, ri float64) (*Result, error) {
	totalEpochs, warmEpochs := horizonEpochs(opts.WithDefaults())
	n := len(cfg.Placement)

	// Resolve draws victims for unresolved events and validates resolved
	// ones against the fleet size; a pure function of (plan, Seed, n).
	plan, err := cfg.FleetPlan.Resolve(cfg.Seed, n)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	sched := supervise(plan, cfg.Placement, cfg.Spec, cfg.ReplaceEvicted, totalEpochs)

	units, trajs, slots := groupUnits(&cfg, plan, sched, opts, ri)
	outs, stats, err := runUnits(&cfg, units, trajs, len(sched.phases) > 1)
	if err != nil {
		return nil, err
	}
	// A sample weighs its phase's measured epochs. In a one-phase schedule
	// the weights are all equal, and weight 1 keeps the weighted means
	// exactly equal to entropy.System and entropy.Yield over the samples.
	weight := func(measured int) float64 {
		if len(sched.phases) == 1 {
			return 1
		}
		return float64(measured)
	}

	// Merge in slot order — fixed before sharding, so identical at every
	// parallelism level and under any grouping.
	res := &Result{Summaries: make([]NodeSummary, n)}
	nodeLC := make([][]entropy.Weighted[entropy.LCSample], n)
	nodeBE := make([][]entropy.Weighted[entropy.BESample], n)
	var allLC []entropy.Weighted[entropy.LCSample]
	var allBE []entropy.Weighted[entropy.BESample]
	for i := 0; i < n; i++ {
		s := &res.Summaries[i]
		s.Node = i
		for _, a := range cfg.Placement[i] {
			if a.LC != nil {
				s.LCApps++
			} else if a.BE != nil {
				s.BEApps++
			}
		}
		s.Failed = sched.crashed[i]
		s.DownEpochs = sched.downEpochsByNode[i]
		s.Evictions = sched.evictionsByNode[i]
	}
	for _, sl := range slots {
		co := &outs[sl.unit]
		s := &res.Summaries[sl.node]
		s.Epochs += co.sum.Epochs
		s.ViolationEpochs += co.sum.ViolationEpochs
		s.Incidents += co.sum.Incidents
		s.DownEpochs += co.sum.DownEpochs
		if co.sum.Failed {
			s.Failed = true
		}
		res.MeasuredEpochs += co.sum.Epochs
		res.TotalViolationEpochs += co.sum.ViolationEpochs
		res.LCAppEpochs += co.sum.LCApps * co.sum.Epochs
		w := weight(sl.measured)
		for _, smp := range co.lc {
			ws := entropy.Weighted[entropy.LCSample]{Sample: smp, Weight: w}
			allLC = append(allLC, ws)
			nodeLC[sl.node] = append(nodeLC[sl.node], ws)
		}
		for _, smp := range co.be {
			ws := entropy.Weighted[entropy.BESample]{Sample: smp, Weight: w}
			allBE = append(allBE, ws)
			nodeBE[sl.node] = append(nodeBE[sl.node], ws)
		}
	}
	// Dead windows: applications running nowhere during a measured phase
	// contribute saturated samples weighted like the phase's units,
	// attributed to their (home) node; every dead LC app-epoch is a
	// violation.
	for pi := range sched.phases {
		_, measured := phaseWindow(&sched.phases[pi], warmEpochs)
		if measured == 0 {
			continue
		}
		w := weight(measured)
		for _, d := range sched.phases[pi].dead {
			s := &res.Summaries[d.node]
			switch {
			case d.app.LC != nil:
				ws := entropy.Weighted[entropy.LCSample]{Sample: deadLCSample(d.app), Weight: w}
				allLC = append(allLC, ws)
				nodeLC[d.node] = append(nodeLC[d.node], ws)
				s.ViolationEpochs += measured
				res.TotalViolationEpochs += measured
				res.LCAppEpochs += measured
			case d.app.BE != nil:
				ws := entropy.Weighted[entropy.BESample]{Sample: deadBESample(d.app), Weight: w}
				allBE = append(allBE, ws)
				nodeBE[d.node] = append(nodeBE[d.node], ws)
			}
		}
	}

	// Per-node entropies and weighted yield over each node's own samples
	// (dead contributions included); a node with no samples at all
	// (everything moved away, nothing placed) reports NaN. The incident
	// counters sum the finished summaries.
	res.Stats = stats
	res.Stats.NodesRun = n
	for i := 0; i < n; i++ {
		s := &res.Summaries[i]
		if s.Failed {
			res.Stats.FailedNodes++
		}
		res.Stats.DownEpochs += s.DownEpochs
		res.Stats.Evictions += s.Evictions
		elc, ebe, es, err := entropy.WeightedSystem{RI: ri}.Compute(nodeLC[i], nodeBE[i])
		if err == nil {
			s.ELC, s.EBE, s.ES = elc, ebe, es
		} else {
			s.ELC, s.EBE, s.ES = math.NaN(), math.NaN(), math.NaN()
		}
		if sat, tot := weightedSatisfied(nodeLC[i]); tot > 0 {
			s.Yield = sat / tot
		}
	}

	elc, ebe, es, err := entropy.WeightedSystem{RI: ri}.Compute(allLC, allBE)
	if err != nil {
		return nil, fmt.Errorf("cluster: global entropy: %w", err)
	}
	res.GlobalELC, res.GlobalEBE, res.GlobalES = elc, ebe, es
	// A fleet without LC samples has no yield: YieldDefined stays false.
	if sat, tot := weightedSatisfied(allLC); tot > 0 {
		res.GlobalYield, res.YieldDefined = sat/tot, true
	}

	res.Evictions = sched.evictions
	res.Replacements = sched.replacements
	res.Abandoned = sched.abandoned
	if sched.replacements > 0 {
		res.MeanRecoveryEpochs = float64(sched.recoverySum) / float64(sched.replacements)
	}
	return res, nil
}

// weightedSatisfied returns the satisfied and total weight of a weighted
// LC sample set — the epoch-weighted yield numerator and denominator.
func weightedSatisfied(samples []entropy.Weighted[entropy.LCSample]) (sat, tot float64) {
	for _, s := range samples {
		tot += s.Weight
		if s.Sample.Satisfied() {
			sat += s.Weight
		}
	}
	return sat, tot
}

// phaseWindow splits a phase into its warm-up overlap and its measured
// epochs.
func phaseWindow(ph *fleetPhase, warmEpochs int) (warmIn, measured int) {
	length := ph.end - ph.start
	warmIn = min(max(warmEpochs-ph.start, 0), length)
	return warmIn, length - warmIn
}

// phaseUnits enumerates the schedule's simulation units in (phase, node)
// order and hands each to emit with its (phase, node) address, its unit
// and trajectory keys with the keys' shard hash, and its phase's measured
// epochs. The key bytes are valid only during the call. Down and empty
// nodes simulate nothing; phases entirely inside warm-up measure nothing
// and are skipped whole. For a template that is not key-serialisable both
// keys are nil: such units are never grouped or cached.
//
// A trajectory key serialises every input the simulation reads —
// capacity, epoch length, RI and timeline flag (post-default), aggregation
// RI, engine tunables, strategy digest, blackout plan, seed, and the
// application template in simulation order. A unit key is the unit's
// horizon (warm-up and measured duration, post-default) followed by its
// trajectory key, so the trajectory key is a suffix of the unit key: the
// horizon decides only where measurement starts and stops, never what is
// simulated (core.RunHorizons). Everything up to the blackout is shared by
// the phase's healthy (or degraded) nodes and is built once per phase; the
// applications, template key and seed come from a per-node memo that lives
// as long as the node's assignment slice (nodeTemplate).
func phaseUnits(cfg *Config, plan *faults.FleetPlan, sched *fleetSchedule, opts core.Options, ri float64, emit func(ref unitRef, u simUnit, key, traj []byte, hash uint64, measured int)) {
	o := opts.WithDefaults()
	totalEpochs, warmEpochs := horizonEpochs(o)
	degSpec := faults.DegradedSpec(cfg.Spec)
	memo := make([]nodeTemplate, len(cfg.Placement))
	var buf []byte // key scratch, reused across units
	for pi := range sched.phases {
		ph := &sched.phases[pi]
		warmIn, measured := phaseWindow(ph, warmEpochs)
		if measured == 0 {
			continue
		}
		phOpts := opts // a whole-horizon phase runs the caller's options verbatim
		if ph.start > 0 || ph.end < totalEpochs {
			phOpts = core.Options{
				EpochMs:    o.EpochMs,
				DurationMs: float64(measured) * o.EpochMs,
				RI:         o.RI,
				WarmupMs:   -1, // negative = no warm-up, 0 would mean the default
			}
			if warmIn > 0 {
				phOpts.WarmupMs = float64(warmIn) * o.EpochMs
			}
		}
		var prefix [2][]byte // healthy, degraded; built on first use
		horizon := 0         // bytes of the prefix that serialise the horizon
		for nd := range ph.assign {
			if ph.down[nd] || len(ph.assign[nd]) == 0 {
				continue
			}
			t := memo[nd].of(cfg, nd, ph.assign[nd])
			spec, deg := cfg.Spec, 0
			if ph.degraded[nd] {
				spec, deg = degSpec, 1
			}
			u := simUnit{
				node: nd, apps: t.apps, spec: spec, seed: t.seed, opts: phOpts,
				blackout: plan.BlackoutPlan(nd, ph.start, ph.end),
			}
			var key, traj []byte
			if t.key != nil {
				if prefix[deg] == nil {
					prefix[deg], horizon = unitKeyPrefix(cfg, spec, phOpts, ri)
				}
				buf = t.appendUnitKey(buf[:0], prefix[deg], u.blackout)
				key, traj = buf, buf[horizon:]
			}
			emit(unitRef{pi, nd}, u, key, traj, keyHash(t.seed, t.hash), measured)
		}
	}
}

// nodeTemplate memoises what the engine derives from one node's
// assignment under the configured seed policy: the applications in
// simulation order (canonical order by default, as given under
// SeedPerNode), their template key (nil when not key-serialisable) with
// its shard hash, and the seed. supervise shares a node's assignment slice
// across phases until the node's contents change (copy-on-write), and
// every earlier phase keeps its slice alive, so the slice identity — first
// element and length — stands for the contents and each assignment is
// serialised once rather than once per phase.
type nodeTemplate struct {
	first *sim.AppConfig
	n     int
	apps  []sim.AppConfig
	key   []byte
	hash  uint64
	seed  int64
}

// of returns node's memo for assign (non-empty), rebuilding it when the
// node's assignment slice changed since the last call.
func (t *nodeTemplate) of(cfg *Config, node int, assign []sim.AppConfig) *nodeTemplate {
	if t.first == &assign[0] && t.n == len(assign) {
		return t
	}
	apps, k := orderedTemplate(assign, !cfg.SeedPerNode)
	seed := cfg.Seed + int64(node)
	if !cfg.SeedPerNode {
		seed = templateSeed(cfg.Seed, apps, k)
	}
	*t = nodeTemplate{first: &assign[0], n: len(assign), apps: apps, key: k, seed: seed}
	if k != nil {
		t.hash = fnv1a(k)
	}
	return t
}

// appendUnitKey appends a unit's key to b: the phase prefix, the blackout
// plan, the seed, and the template.
func (t *nodeTemplate) appendUnitKey(b, prefix []byte, blackout *faults.Plan) []byte {
	b = append(b, prefix...)
	b = sim.AppendKeyString(b, blackout.String())
	b = sim.AppendKeyInt64(b, t.seed)
	b = append(b, '|')
	return append(b, t.key...)
}

// unitKeyPrefix serialises the unit-key inputs one phase shares across
// every node of one capacity, and returns it with the length of its
// leading horizon part: the horizon (warm-up and measured duration), then
// the trajectory inputs — the capacity, the controller options that reach
// the simulation (post-default, so spelling a default explicitly cannot
// split the key), the aggregation RI, the engine tunables the fleet engine
// runs (DefaultTunables — units construct their engines without
// overrides, and the serialisation pins that assumption), and the strategy
// digest.
func unitKeyPrefix(cfg *Config, spec machine.Spec, opts core.Options, ri float64) ([]byte, int) {
	o := opts.WithDefaults()
	b := make([]byte, 0, 256)
	b = sim.AppendKeyFloat(b, o.WarmupMs)
	b = sim.AppendKeyFloat(b, o.DurationMs)
	horizon := len(b)
	b = sim.AppendKeyInt(b, spec.Cores)
	b = sim.AppendKeyInt(b, spec.LLCWays)
	b = sim.AppendKeyInt(b, spec.MemBWUnits)
	b = sim.AppendKeyFloat(b, spec.MemBWGBps)
	b = sim.AppendKeyFloat(b, o.EpochMs)
	b = sim.AppendKeyFloat(b, o.RI)
	if o.RecordTimeline {
		b = append(b, 'T')
	}
	b = sim.AppendKeyFloat(b, ri)
	b = sim.AppendTunablesKey(b, sim.DefaultTunables())
	return sim.AppendKeyString(b, cfg.StrategyDigest), horizon
}
