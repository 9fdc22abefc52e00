package cluster

// The fleet supervisor turns a resolved faults.FleetPlan into a phase
// schedule the phased engine (chaos.go) can simulate: it walks the run's
// epochs, applies every crash, restart and degrade the plan dictates, and
// — under Config.ReplaceEvicted — evicts a crashed node's applications and
// re-places them onto surviving nodes through the same interference scorer
// the Scored placement uses. The walk is pure sequential float/int math
// over the plan and the initial placement, so the schedule (and everything
// simulated from it) is a deterministic function of the configuration. An
// empty plan changes nothing, so its schedule is the single phase
// [0, total).
//
// Re-placement is bounded on three axes, mirroring what a production
// control plane does to avoid thrashing a degraded fleet:
//
//   - churn bound: at most replaceChurnPerEpoch orphans move per epoch;
//     the rest simply wait for the next epoch.
//   - capped retries with exponential backoff: an orphan no node will
//     accept retries after 1, 2, 4, 8 epochs (capped), and after
//     maxReplaceAttempts failed attempts it is abandoned for the rest of
//     the run (it keeps contributing dead-window samples).
//   - utilisation cap: a candidate node already loaded past
//     replaceUtilCap estimated demand per core refuses the orphan —
//     re-placement must not turn one dead node into three drowning ones.

import (
	"ahq/internal/faults"
	"ahq/internal/machine"
	"ahq/internal/sim"
)

// Supervisor re-placement bounds (DESIGN.md §12).
const (
	// maxReplaceAttempts is the number of failed placement attempts after
	// which an orphan is abandoned.
	maxReplaceAttempts = 4
	// replaceBackoffCapEpochs caps the exponential retry backoff.
	replaceBackoffCapEpochs = 8
	// replaceChurnPerEpoch bounds successful re-placements per epoch
	// across the whole fleet.
	replaceChurnPerEpoch = 16
	// replaceUtilCap is the estimated-demand-per-core level above which a
	// candidate node refuses an orphan.
	replaceUtilCap = 2.0
)

// orphan is one evicted application awaiting re-placement.
type orphan struct {
	app        sim.AppConfig
	home       int // node it was evicted from (absorbs its dead accounting)
	evictEpoch int
	attempts   int
	nextTry    int
}

// deadApp is one application that is not running anywhere during a phase:
// resident on a crashed node (no-replace), or evicted and not yet (or
// never) re-placed. Its dead windows are attributed to node.
type deadApp struct {
	app  sim.AppConfig
	node int
}

// fleetPhase is one maximal epoch range [start, end) over which the
// fleet's configuration is constant: no crash, restart, degrade flip or
// re-placement happens strictly inside it. assign/down/degraded are
// per-node snapshots valid for the whole range; dead lists the
// applications running nowhere during it.
type fleetPhase struct {
	start, end int
	assign     [][]sim.AppConfig
	down       []bool
	degraded   []bool
	dead       []deadApp
}

// fleetSchedule is the supervisor's output: the phase list plus the
// deterministic incident and recovery counters the fleet result reports.
type fleetSchedule struct {
	phases []fleetPhase
	// evictions counts applications evicted from crashing nodes;
	// replacements counts successful re-placements; abandoned counts
	// orphans given up on after maxReplaceAttempts.
	evictions, replacements, abandoned int
	// recoverySum accumulates (placement epoch - eviction epoch) over
	// every successful re-placement.
	recoverySum int
	// evictionsByNode and downEpochsByNode split the counters per node;
	// crashed marks nodes that were down at any epoch.
	evictionsByNode  []int
	downEpochsByNode []int
	crashed          []bool
}

// addAppLoad accumulates one application into a node's scoring state.
func addAppLoad(st *nodeLoad, app sim.AppConfig) {
	d, g := EstimateDemand(app), bandwidthAppetite(app)
	st.demand += d
	st.count++
	if app.LC != nil {
		st.lcDemand += d
		st.lcGBps += g
	} else {
		st.beGBps += g
	}
}

// supervise walks the run's epochs under the resolved plan and returns the
// phase schedule. The plan must be resolved; totalEpochs covers warm-up
// plus the measured horizon (the supervisor is warm-up-agnostic — the
// phased engine weighs phases by their measured overlap).
func supervise(plan *faults.FleetPlan, placement [][]sim.AppConfig, spec machine.Spec, replace bool, totalEpochs int) *fleetSchedule {
	n := len(placement)
	cur := append([][]sim.AppConfig(nil), placement...)
	load := make([]nodeLoad, n)
	for i, apps := range placement {
		for _, a := range apps {
			addAppLoad(&load[i], a)
		}
	}
	down := make([]bool, n)
	degraded := make([]bool, n)
	var pending []orphan
	var abandoned []deadApp
	sched := &fleetSchedule{
		evictionsByNode:  make([]int, n),
		downEpochsByNode: make([]int, n),
		crashed:          make([]bool, n),
	}
	degSpec := faults.DegradedSpec(spec)

	phaseStart := 0
	snapshot := func(end int) {
		if end <= phaseStart {
			return
		}
		ph := fleetPhase{
			start:    phaseStart,
			end:      end,
			assign:   append([][]sim.AppConfig(nil), cur...),
			down:     append([]bool(nil), down...),
			degraded: append([]bool(nil), degraded...),
		}
		if replace {
			for _, o := range pending {
				ph.dead = append(ph.dead, deadApp{o.app, o.home})
			}
			ph.dead = append(ph.dead, abandoned...)
		} else {
			for i := range cur {
				if !down[i] {
					continue
				}
				for _, a := range cur[i] {
					ph.dead = append(ph.dead, deadApp{a, i})
				}
			}
		}
		sched.phases = append(sched.phases, ph)
		phaseStart = end
	}

	for e := 0; e < totalEpochs; e++ {
		// cut closes the running phase at e with the pre-transition state;
		// every mutation below calls it first, and the guard makes the
		// first caller win, so one epoch's transitions share one boundary.
		cutDone := false
		cut := func() {
			if !cutDone {
				snapshot(e)
				cutDone = true
			}
		}

		// Crash, restart and degrade flips dictated by the plan.
		for i := 0; i < n; i++ {
			if nd := plan.DownAt(i, e); nd != down[i] {
				cut()
				if nd {
					sched.crashed[i] = true
					if replace && len(cur[i]) > 0 {
						for _, a := range cur[i] {
							pending = append(pending, orphan{app: a, home: i, evictEpoch: e, nextTry: e + 1})
						}
						sched.evictions += len(cur[i])
						sched.evictionsByNode[i] += len(cur[i])
						cur[i] = nil
						load[i] = nodeLoad{}
					}
					// No-replace: the applications stay assigned (and
					// dead) and resume if the node restarts.
				}
				down[i] = nd
			}
			if dg := plan.At(faults.NodeDegrade, i, e); dg != degraded[i] {
				cut()
				degraded[i] = dg
			}
			if down[i] {
				sched.downEpochsByNode[i]++
			}
		}

		// Re-placement attempts, in eviction order, within this epoch's
		// churn budget. A successful placement mutates the assignment (and
		// cuts the phase); a refused attempt only backs the orphan off.
		if replace && len(pending) > 0 {
			budget := replaceChurnPerEpoch
			kept := make([]orphan, 0, len(pending))
			for idx, o := range pending {
				if o.nextTry > e {
					kept = append(kept, o)
					continue
				}
				if budget == 0 {
					// Out of churn: everything else waits untouched.
					kept = append(kept, pending[idx:]...)
					break
				}
				d, g := EstimateDemand(o.app), bandwidthAppetite(o.app)
				isLC := o.app.LC != nil
				best, bestScore := -1, 0.0
				for nd := 0; nd < n; nd++ {
					if down[nd] {
						continue
					}
					sp := spec
					if degraded[nd] {
						sp = degSpec
					}
					cores, mem := float64(sp.Cores), sp.MemBWGBps
					if (load[nd].demand+d)/cores > replaceUtilCap {
						continue
					}
					s := placementScore(&load[nd], d, g, isLC, cores, mem)
					if best < 0 || s < bestScore {
						best, bestScore = nd, s
					}
				}
				if best < 0 {
					o.attempts++
					if o.attempts >= maxReplaceAttempts {
						sched.abandoned++
						abandoned = append(abandoned, deadApp{o.app, o.home})
						continue
					}
					backoff := 1 << (o.attempts - 1)
					if backoff > replaceBackoffCapEpochs {
						backoff = replaceBackoffCapEpochs
					}
					o.nextTry = e + backoff
					kept = append(kept, o)
					continue
				}
				cut()
				// Copy-on-write: earlier phases hold references to the
				// node's previous slice.
				cur[best] = append(append([]sim.AppConfig(nil), cur[best]...), o.app)
				addAppLoad(&load[best], o.app)
				sched.replacements++
				sched.recoverySum += e - o.evictEpoch
				budget--
			}
			pending = kept
		}
	}
	snapshot(totalEpochs)
	return sched
}
