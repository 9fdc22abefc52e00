package sim

import (
	"math"

	"ahq/internal/machine"
	"ahq/internal/workload"
)

// The resolvers below are the fresh-solve path of resolveContention
// (memo.go). They read region structure exclusively through the compiled
// topology (topology.go) — per-app isolated resources and per-region member
// index lists — so the per-tick cost is linear in members, with no string
// comparisons. Member lists preserve engine configuration order, keeping
// every float accumulation in the exact order of the original membership
// scans.

// resolveCores distributes core time for the current tick. Threads first
// fill their application's isolated cores one-to-one; the remainder spill
// into the application's shared region, where capacity is divided per
// thread — equally under FairShare (CFS) or latency-critical-first under
// LCPriority (real-time priority / the ARQ shared region).
func (e *Engine) resolveCores() {
	for i, a := range e.apps {
		a.isoCores = e.topo.byApp[i].isoCores
		a.isoShare = 0
		a.sharedThreads = 0
		a.sharedShare = 0
		a.sharedCrowded = false
		a.sharedPolluted = false
		a.dispatchDelay = 0
		used := a.activeThreads
		if used > a.isoCores {
			used = a.isoCores
		}
		if used > 0 {
			a.isoShare = 1
		}
		a.sharedThreads = a.activeThreads - used
	}

	for si := range e.topo.shared {
		g := e.topo.shared[si].region
		members := e.scratchMembers[:0]
		lcThreads, beThreads, appsPresent := 0, 0, 0
		for _, ai := range e.topo.shared[si].members {
			a := e.apps[ai]
			if a.sharedThreads == 0 {
				continue
			}
			members = append(members, a) //ahqlint:allow hotpath amortized: scratchMembers reuses its backing array across ticks
			appsPresent++
			if a.class == workload.LC {
				lcThreads += a.sharedThreads
			} else {
				beThreads += a.sharedThreads
			}
		}
		if len(members) == 0 {
			continue
		}
		total := lcThreads + beThreads
		capacity := float64(g.Cores)
		crowded := float64(total) > capacity
		polluted := crowded && appsPresent > 1

		var lcShare, beShare float64
		switch {
		case g.Policy == machine.LCPriority && lcThreads > 0:
			// Strict real-time priority: LC threads first, BE threads
			// split whatever is left.
			lcShare = math.Min(1, capacity/float64(lcThreads))
			rest := capacity - lcShare*float64(lcThreads)
			if beThreads > 0 && rest > 0 {
				beShare = math.Min(1, rest/float64(beThreads))
			}
		case lcThreads > 0:
			// CFS with sleeper fairness: waking LC threads preempt batch
			// work promptly, so each batch thread exerts only BatchDrag
			// of a fair-share slot against LC; BE absorbs the leftover.
			drag := float64(lcThreads) + e.tun.BatchDrag*float64(beThreads)
			lcShare = math.Min(1, capacity/drag)
			rest := capacity - lcShare*float64(lcThreads)
			if beThreads > 0 && rest > 0 {
				beShare = math.Min(1, rest/float64(beThreads))
			}
		case beThreads > 0:
			beShare = math.Min(1, capacity/float64(beThreads))
		}
		// CFS wakeup-to-dispatch delay for LC work in a crowded fair
		// region; LC-priority regions dispatch LC work immediately.
		dispatch := 0.0
		if g.Policy == machine.FairShare && crowded {
			over := (float64(total) - capacity) / capacity
			dispatch = e.tun.TimesliceMs * over * over
			if dispatch > e.tun.DispatchDelayCapMs {
				dispatch = e.tun.DispatchDelayCapMs
			}
		}
		for _, a := range members {
			if a.class == workload.LC {
				a.sharedShare = lcShare
				a.dispatchDelay = dispatch
			} else {
				a.sharedShare = beShare
			}
			a.sharedCrowded = crowded
			a.sharedPolluted = polluted
		}
		e.scratchMembers = members[:0]
	}

	// Apply timesharing overheads to the shared-region share and total up
	// each application's core time for bandwidth accounting.
	for _, a := range e.apps {
		if a.sharedCrowded && a.sharedShare > 0 {
			penalty := e.tun.SwitchOverhead
			if a.sharedPolluted {
				penalty += e.tun.PollutionOverhead
			}
			a.sharedShare *= 1 - penalty
		}
		isoUsed := a.activeThreads
		if isoUsed > a.isoCores {
			isoUsed = a.isoCores
		}
		a.totalCoreShare = float64(isoUsed)*a.isoShare + float64(a.sharedThreads)*a.sharedShare
	}
}

// resolveCache computes each application's effective LLC ways: its isolated
// ways plus a share of every shared region it belongs to (the CLOS mask
// union of the ARQ design).
//
// Shared ways are divided by *insertion pressure*, the LRU steady state:
// an application fills cache in proportion to the miss traffic it generates,
// which itself depends on how much cache it holds. The fixed point of
//
//	w_i = W * p_i / sum(p),  p_i = threads_i * gbps_i * miss_i(w_i + iso_i)
//
// captures the crucial asymmetry of the paper's Fig. 8 vs Fig. 9: an
// application whose working set fits (Fluidanimate) stops missing and stops
// evicting others, while a streaming application (STREAM) never stops
// inserting and floods any cache it can touch.
func (e *Engine) resolveCache() {
	for i, a := range e.apps {
		a.isoWays = e.topo.byApp[i].isoWays
		a.effWays = a.isoWays
	}
	for si := range e.topo.shared {
		g := e.topo.shared[si].region
		if g.Ways == 0 {
			continue
		}
		members := e.scratchIdx[:0]
		for _, ai := range e.topo.shared[si].members {
			if e.apps[ai].activeThreads > 0 {
				members = append(members, ai) //ahqlint:allow hotpath amortized: scratchIdx reuses its backing array across ticks
			}
		}
		e.scratchIdx = members
		n := len(members)
		if n == 0 {
			continue
		}
		w := float64(g.Ways)
		// Warm-start from an even split and iterate the pressure fixed
		// point; three rounds are plenty at this granularity. The first
		// round's miss ratios depend on the allocation and n only, so they
		// come from the topology.
		share := growScratch(&e.scratchShare, n)
		pressure := growScratch(&e.scratchPressure, n)
		for i := range share {
			share[i] = w / float64(n)
		}
		for iter := 0; iter < 3; iter++ {
			total := 0.0
			for i, ai := range members {
				a := e.apps[ai]
				var miss float64
				if iter == 0 {
					miss = e.evenMiss(ai, n, share[i])
				} else {
					miss = a.cache().MissRatio(a.isoWays + share[i])
				}
				p := float64(a.activeThreads) * a.sens().MemGBpsPerThread * miss
				if p < 1e-9 {
					p = 1e-9
				}
				pressure[i] = p
				total += p
			}
			for i := range members {
				share[i] = w * pressure[i] / total
			}
		}
		for i, ai := range members {
			e.apps[ai].effWays += share[i]
		}
	}
}

// evenMiss returns app ai's miss ratio at its isolated ways plus share,
// the even split of its shared region among n active members, filling the
// topology's entry on the first tick with n active members.
func (e *Engine) evenMiss(ai, n int, share float64) float64 {
	ta := &e.topo.byApp[ai]
	if math.IsNaN(ta.evenMiss[n]) {
		ta.evenMiss[n] = e.apps[ai].cache().MissRatio(ta.isoWays + share)
	}
	return ta.evenMiss[n]
}

// missRatio returns app i's miss ratio at its current effective ways,
// including the transient warm-up penalty after repartitioning. An app that
// took no shared ways this tick sits at exactly its isolated ways, whose
// miss ratio the topology holds.
func (e *Engine) missRatio(i int, a *appState) float64 {
	m := e.topo.byApp[i].isoMiss
	//ahqlint:allow floatcmp exact: equal arguments give MissRatio identical bits, so the reuse is bit-exact
	if a.effWays != a.isoWays {
		m = a.cache().MissRatio(a.effWays)
	}
	if e.nowMs < a.warmupUntilMs {
		frac := (a.warmupUntilMs - e.nowMs) / e.tun.WarmupMs
		m += e.tun.WarmupMissBoost * frac
	}
	if m > 1 {
		m = 1
	}
	return m
}

// resolveMemBW grants memory bandwidth (isolated MBA units first, then the
// shared pool divided proportionally to residual demand) and combines the
// cache and bandwidth effects into each application's service slowdown,
// normalised so the solo full-resource configuration is 1.
func (e *Engine) resolveMemBW() {
	unitGBps := e.spec.MemBWGBps / float64(e.spec.MemBWUnits)

	reqs := growScratchReq(&e.scratchReqs, len(e.apps))
	miss := growScratch(&e.scratchMiss, len(e.apps))
	for i, a := range e.apps {
		miss[i] = e.missRatio(i, a)
		demand := a.sens().MemGBpsPerThread * miss[i] * a.totalCoreShare
		isoBW := float64(e.topo.byApp[i].isoBWUnits) * unitGBps
		granted := math.Min(demand, isoBW)
		reqs[i] = bwReq{demand: demand, spill: demand - granted, grant: granted}
	}

	for si := range e.topo.shared {
		g := e.topo.shared[si].region
		if g.BWUnits == 0 {
			continue
		}
		pool := float64(g.BWUnits) * unitGBps
		totalSpill := 0.0
		for _, ai := range e.topo.shared[si].members {
			totalSpill += reqs[ai].spill
		}
		if totalSpill <= 0 {
			continue
		}
		frac := math.Min(1, pool/totalSpill)
		for _, ai := range e.topo.shared[si].members {
			reqs[ai].grant += reqs[ai].spill * frac
			reqs[ai].spill = 0
		}
	}

	for i, a := range e.apps {
		sens := a.sens()
		sat := 1.0
		if reqs[i].demand > 0 {
			sat = reqs[i].grant / reqs[i].demand
		}
		if sat < e.tun.MinBWSatisfaction {
			sat = e.tun.MinBWSatisfaction
		}
		memFactor := 1 + sens.MemSens*(1/sat-1)
		cacheFactor := (1 + sens.CacheSens*miss[i]) / a.cacheDenom
		a.slowdown = cacheFactor * memFactor
		a.rateIso = 1 / a.slowdown
		a.rateShared = a.sharedShare / a.slowdown
	}
}

// bwReq tracks one application's bandwidth demand resolution for a tick,
// indexed by engine application order.
type bwReq struct {
	demand float64
	spill  float64
	grant  float64
}

// growScratch returns a zeroed float scratch slice of length n, reusing the
// backing array across ticks.
func growScratch(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n) //ahqlint:allow hotpath capacity-guarded: runs only when the reusable scratch must grow
		return *buf
	}
	s := (*buf)[:n]
	clear(s)
	return s
}

// growScratchReq is growScratch for bandwidth requests.
func growScratchReq(buf *[]bwReq, n int) []bwReq {
	if cap(*buf) < n {
		*buf = make([]bwReq, n) //ahqlint:allow hotpath capacity-guarded: runs only when the reusable scratch must grow
		return *buf
	}
	s := (*buf)[:n]
	clear(s)
	return s
}

// progress advances every in-service request and accumulates best-effort
// work for the tick. LC requests are served by worker-thread "slots"; see
// dispatch.go for the earliest-slot dispatchers. A slot that finishes a short
// request picks up the next queued one within the same tick (the
// simulator's throughput is not quantised by the tick), mid-tick arrivals
// only receive service after they arrive, and a request never runs on more
// than one core at a time.
func (e *Engine) progress(dt, tickEnd float64) {
	for _, a := range e.apps {
		if a.class == workload.BE {
			// A starved tick adds +0 work, which leaves every (non-negative)
			// run total exactly as skipping the addition would.
			work := 0.0
			if a.totalCoreShare > 0 && a.slowdown > 0 {
				work = a.totalCoreShare * dt / a.slowdown
				a.workWin.Add(work)
			}
			for m := range a.runs {
				r := &a.runs[m]
				r.work += work
				r.ms += dt
			}
			continue
		}
		if a.pendingLen() == 0 {
			continue
		}
		a.dispatchHeap(e.nowMs, tickEnd)
	}
}
