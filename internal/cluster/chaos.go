package cluster

// The chaos engine is the fleet run under a faults.FleetPlan: node
// crashes, capacity degradations and telemetry blackouts at fleet scope,
// with optional failure-aware re-placement. It simulates the fleet as a
// sequence of *phases* — maximal epoch ranges over which the fleet's
// configuration is constant (supervisor.go cuts one at every crash,
// restart, degrade flip and re-placement) — and each (phase, node) becomes
// one independent simulation unit: the node's applications at that time,
// its (possibly degraded) capacity, and its blackout coverage lowered to a
// node-local telemetry-drop plan. A phase overlapping the warm-up window
// carries the overlap as its own warm-up; later phases run unwarmed.
//
// The phased model deliberately drops cross-phase node state (queue
// backlogs, strategy learning do not survive a boundary): a phase is a
// fresh steady-state estimate of the configuration it covers, which is
// exactly the quantity fleet-level E_S aggregation needs, and what keeps
// every unit a pure function of its content — so units dedup across
// phases, nodes, and whole sweeps through the same classing and NodeCache
// machinery as the legacy path, and output is byte-identical at every
// -parallel level.
//
// Aggregation pools run-level samples over every unit, weighted by the
// unit's measured epochs (entropy.WeightedSystem), and accounts dead
// windows explicitly: an application on a crashed node (no-replace), or
// evicted and not yet — or never — re-placed, contributes a saturated
// sample weighted by the phase's measured epochs, and each such LC
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

// chaosClass is one unit equivalence class of a chaos run: the unit, its
// NodeCache key (empty = never cached), the (phase, node) pairs it covers,
// and the phase's measured epochs (equal across members — the key includes
// the options, which pin the phase shape).
type chaosClass struct {
	key      cacheKey
	unit     simUnit
	members  []unitRef
	measured int
}

// unitRef addresses one (phase, node) slot of the schedule.
type unitRef struct {
	phase, node int
}

// runChaos drives the fleet under the configured FleetPlan. cfg has been
// validated by Run (placement non-empty, strategy present, no NodeSeed, no
// KeepResults, NodeCache implies StrategyDigest).
func runChaos(cfg Config, opts core.Options, ri float64) (*Result, error) {
	o := opts.WithDefaults()
	totalEpochs := int(math.Ceil((o.WarmupMs + o.DurationMs) / o.EpochMs))
	warmEpochs := int(math.Ceil(o.WarmupMs / o.EpochMs))
	n := len(cfg.Placement)

	// Resolve draws victims for unresolved events and validates resolved
	// ones against the fleet size; a pure function of (plan, Seed, n).
	plan, err := cfg.FleetPlan.Resolve(cfg.Seed, n)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	sched := supervise(plan, cfg.Placement, cfg.Spec, cfg.ReplaceEvicted, totalEpochs)

	// Group the unit list into classes: under DedupIdenticalNodes equal
	// keys share one simulation, and the key addresses the NodeCache.
	classes := make([]chaosClass, 0, n*len(sched.phases)) // one per unit at most
	index := make(map[string]int)
	keyed := cfg.DedupIdenticalNodes || cfg.NodeCache != nil
	chaosUnits(&cfg, plan, sched, o, ri, keyed, func(ref unitRef, u simUnit, key cacheKey, measured int) {
		if key.s != "" && cfg.DedupIdenticalNodes {
			if ci, dup := index[key.s]; dup {
				classes[ci].members = append(classes[ci].members, ref)
				return
			}
			index[key.s] = len(classes)
		}
		if cfg.NodeCache == nil {
			key = cacheKey{}
		}
		classes = append(classes, chaosClass{
			key: key, unit: u, members: []unitRef{ref}, measured: measured,
		})
	})

	units := make([]shardUnit, len(classes))
	for ci := range classes {
		units[ci] = shardUnit{key: classes[ci].key, unit: classes[ci].unit}
	}
	outs, stats, err := runUnits(&cfg, units)
	if err != nil {
		return nil, err
	}

	// Merge in class order, expanding to members in member order — fixed
	// before sharding, so identical at every parallelism level.
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
	for ci := range classes {
		cl := &classes[ci]
		co := &outs[ci]
		w := float64(cl.measured)
		for _, m := range cl.members {
			s := &res.Summaries[m.node]
			s.Epochs += co.sum.Epochs
			s.ViolationEpochs += co.sum.ViolationEpochs
			s.Incidents += co.sum.Incidents
			if co.sum.Failed {
				s.Failed = true
			}
			res.MeasuredEpochs += co.sum.Epochs
			res.TotalViolationEpochs += co.sum.ViolationEpochs
			res.LCAppEpochs += co.sum.LCApps * co.sum.Epochs
			for _, smp := range co.lc {
				ws := entropy.Weighted[entropy.LCSample]{Sample: smp, Weight: w}
				allLC = append(allLC, ws)
				nodeLC[m.node] = append(nodeLC[m.node], ws)
			}
			for _, smp := range co.be {
				ws := entropy.Weighted[entropy.BESample]{Sample: smp, Weight: w}
				allBE = append(allBE, ws)
				nodeBE[m.node] = append(nodeBE[m.node], ws)
			}
		}
	}
	// Dead windows: applications running nowhere during a measured phase
	// contribute saturated samples weighted by the phase's measured
	// epochs, attributed to their (home) node; every dead LC app-epoch is
	// a violation.
	for pi := range sched.phases {
		_, measured := phaseWindow(&sched.phases[pi], warmEpochs)
		if measured == 0 {
			continue
		}
		w := float64(measured)
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

	// Per-node entropies and epoch-weighted yield over each node's own
	// weighted samples (dead contributions included); a node with no
	// samples at all (everything moved away, nothing placed) reports NaN.
	for i := 0; i < n; i++ {
		s := &res.Summaries[i]
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
	if sat, tot := weightedSatisfied(allLC); tot > 0 {
		res.GlobalYield, res.YieldDefined = sat/tot, true
	}

	res.Evictions = sched.evictions
	res.Replacements = sched.replacements
	res.Abandoned = sched.abandoned
	if sched.replacements > 0 {
		res.MeanRecoveryEpochs = float64(sched.recoverySum) / float64(sched.replacements)
	}
	res.Stats = stats
	res.Stats.NodesRun = n
	addIncidentCounters(res)
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

// chaosUnits enumerates the schedule's simulation units in (phase, node)
// order and hands each to emit with its (phase, node) address, its content
// key and its phase's measured epochs. Down and empty nodes simulate
// nothing; phases entirely inside warm-up measure nothing and are skipped
// whole. With keyed unset, or for a template that is not
// key-serialisable, the key is empty: such units are never grouped or
// cached.
//
// A unit key serialises every input the unit's simulation reads —
// capacity, per-phase controller options (post-default), aggregation RI,
// engine tunables, strategy digest, blackout plan, seed, and the canonical
// application template. Everything up to the blackout is shared by the
// phase's healthy (or degraded) nodes and is built once per phase; the
// canonical order, template key and seed come from a per-node memo that
// lives as long as the node's assignment slice (nodeTemplate).
func chaosUnits(cfg *Config, plan *faults.FleetPlan, sched *fleetSchedule, o core.Options, ri float64, keyed bool, emit func(ref unitRef, u simUnit, key cacheKey, measured int)) {
	warmEpochs := int(math.Ceil(o.WarmupMs / o.EpochMs))
	degSpec := faults.DegradedSpec(cfg.Spec)
	memo := make([]nodeTemplate, len(cfg.Placement))
	for pi := range sched.phases {
		ph := &sched.phases[pi]
		warmIn, measured := phaseWindow(ph, warmEpochs)
		if measured == 0 {
			continue
		}
		phOpts := core.Options{
			EpochMs:    o.EpochMs,
			DurationMs: float64(measured) * o.EpochMs,
			RI:         o.RI,
		}
		if warmIn > 0 {
			phOpts.WarmupMs = float64(warmIn) * o.EpochMs
		} else {
			phOpts.WarmupMs = -1 // negative = no warm-up, 0 would mean the default
		}
		var prefix [2][]byte // healthy, degraded; built on first use
		for nd := range ph.assign {
			if ph.down[nd] || len(ph.assign[nd]) == 0 {
				continue
			}
			t := memo[nd].of(cfg.Seed, ph.assign[nd])
			spec, deg := cfg.Spec, 0
			if ph.degraded[nd] {
				spec, deg = degSpec, 1
			}
			u := simUnit{
				node: nd, apps: t.apps, spec: spec, seed: t.seed, opts: phOpts,
				blackout: plan.BlackoutPlan(nd, ph.start, ph.end),
			}
			var key cacheKey
			if keyed && t.key != nil {
				if prefix[deg] == nil {
					prefix[deg] = chaosKeyPrefix(cfg, spec, phOpts, ri)
				}
				key = t.unitKey(prefix[deg], u.blackout)
			}
			emit(unitRef{pi, nd}, u, key, measured)
		}
	}
}

// nodeTemplate memoises what the chaos engine derives from one node's
// assignment: the canonical application order, the canonical template key
// (nil when not key-serialisable) with its shard hash, and TemplateSeed.
// supervise shares a node's assignment slice across phases until the
// node's contents change (copy-on-write), and every earlier phase keeps
// its slice alive, so the slice identity — first element and length —
// stands for the contents and each assignment is serialised once rather
// than once per phase.
type nodeTemplate struct {
	first *sim.AppConfig
	n     int
	apps  []sim.AppConfig
	key   []byte
	hash  uint64
	seed  int64
}

// of returns the memo for assign (non-empty), rebuilding it when the
// node's assignment slice changed since the last call.
func (t *nodeTemplate) of(base int64, assign []sim.AppConfig) *nodeTemplate {
	if t.first == &assign[0] && t.n == len(assign) {
		return t
	}
	apps := CanonicalOrder(assign)
	k, ok := templateKey(apps)
	*t = nodeTemplate{first: &assign[0], n: len(assign), apps: apps, seed: templateSeed(base, apps, k, ok)}
	if ok {
		t.key, t.hash = k, fnv1a(k)
	}
	return t
}

// unitKey completes a unit's key: the phase prefix, the blackout plan, the
// seed, and the template.
func (t *nodeTemplate) unitKey(prefix []byte, blackout *faults.Plan) cacheKey {
	bo := blackout.String()
	b := make([]byte, 0, len(prefix)+len(bo)+32+len(t.key))
	b = append(b, prefix...)
	b = sim.AppendKeyString(b, bo)
	b = sim.AppendKeyInt64(b, t.seed)
	b = append(b, '|')
	b = append(b, t.key...)
	return cacheKey{s: string(b), hash: keyHash(t.seed, t.hash)}
}

// chaosKeyPrefix serialises the unit-key inputs one phase shares across
// every node of one capacity. The "chaos|" namespace keeps chaos keys
// disjoint from legacy node keys in a shared NodeCache.
func chaosKeyPrefix(cfg *Config, spec machine.Spec, opts core.Options, ri float64) []byte {
	o := opts.WithDefaults()
	b := make([]byte, 0, 256)
	b = append(b, "chaos|"...)
	b = sim.AppendKeyInt(b, spec.Cores)
	b = sim.AppendKeyInt(b, spec.LLCWays)
	b = sim.AppendKeyInt(b, spec.MemBWUnits)
	b = sim.AppendKeyFloat(b, spec.MemBWGBps)
	b = sim.AppendKeyFloat(b, o.EpochMs)
	b = sim.AppendKeyFloat(b, o.WarmupMs)
	b = sim.AppendKeyFloat(b, o.DurationMs)
	b = sim.AppendKeyFloat(b, o.RI)
	b = sim.AppendKeyFloat(b, ri)
	b = sim.AppendTunablesKey(b, sim.DefaultTunables())
	return sim.AppendKeyString(b, cfg.StrategyDigest)
}
