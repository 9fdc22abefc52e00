package sim

import (
	"fmt"
	"math"
	"testing"

	"ahq/internal/machine"
	"ahq/internal/trace"
	"ahq/internal/workload"
)

// wideEngine builds a 16-application dense node — 100 cores, 200 LLC ways,
// 12 latency-critical catalog clones at the given loads (cycled) plus 4
// best-effort apps — under the allocation shape ARQ converges to there:
// one isolated slice per LC app plus one LC-priority shared region holding
// everyone. It returns the engine and two allocations that differ by one
// way moved between app 0's isolated region and the shared one, the
// alternation a controller repartitioning every epoch produces.
func wideEngine(t *testing.T, loads []float64) (*Engine, [2]machine.Allocation) {
	t.Helper()
	spec := machine.Spec{Cores: 100, LLCWays: 200, MemBWUnits: 100, MemBWGBps: 400}
	lcBase := []string{"xapian", "moses", "img-dnn", "silo"}
	beBase := []string{"stream", "fluidanimate", "streamcluster", "stream"}
	var apps []AppConfig
	var names []string
	for i := 0; i < 12; i++ {
		lc := workload.MustLC(lcBase[i%len(lcBase)])
		lc.Name = fmt.Sprintf("%s-%d", lc.Name, i)
		names = append(names, lc.Name)
		apps = append(apps, AppConfig{LC: &lc, Load: trace.Constant(loads[i%len(loads)])})
	}
	for i := 0; i < 4; i++ {
		be := workload.MustBE(beBase[i])
		be.Name = fmt.Sprintf("%s-%d", be.Name, i)
		names = append(names, be.Name)
		apps = append(apps, AppConfig{BE: &be})
	}
	e, err := New(Config{Spec: spec, Seed: 5, Apps: apps})
	if err != nil {
		t.Fatal(err)
	}
	var allocs [2]machine.Allocation
	for k := range allocs {
		var regions []machine.Region
		for i := 0; i < 12; i++ {
			regions = append(regions, machine.Region{
				Name: "iso:" + names[i], Kind: machine.Isolated,
				Cores: 4, Ways: 8, BWUnits: 4, Apps: []string{names[i]},
			})
		}
		regions[0].Ways -= k
		regions = append(regions, machine.Region{
			Name: "shared", Kind: machine.Shared, Policy: machine.LCPriority,
			Cores: spec.Cores - 48, Ways: spec.LLCWays - 96 + k, BWUnits: spec.MemBWUnits - 48,
			Apps: append([]string(nil), names...),
		})
		allocs[k] = machine.Allocation{Regions: regions}
	}
	return e, allocs
}

// wideLoads mixes busy and nearly idle LC apps, so active-thread vectors
// both repeat (the table captures and serves them) and vary (the number of
// active shared-region members and the set of apps taking no shared ways
// change from tick to tick).
var wideLoads = []float64{0.25, 0.03, 0.1, 0.02}

// TestMemoizedWideTickMatchesFreshSolve is the wide-key counterpart of
// TestMemoizedTickMatchesFreshSolve: a 16-application engine with the memo
// and one forced through the fresh resolvers every tick, repartitioned
// every 500 ticks (the ARQ epoch) through each warm-up decay, must hold
// bit-identical resolver outputs at every tick.
func TestMemoizedWideTickMatchesFreshSolve(t *testing.T) {
	memo, allocs := wideEngine(t, wideLoads)
	fresh, _ := wideEngine(t, wideLoads)
	fresh.memo.disabled = true
	tableHits := 0
	for tick := 0; tick < 6000; tick++ {
		if tick%500 == 0 {
			for _, e := range []*Engine{memo, fresh} {
				if err := e.SetAllocation(allocs[tick/500%2]); err != nil {
					t.Fatal(err)
				}
			}
		}
		hits := memo.memo.hits
		if stepConsultsTable(memo) && memo.memo.hits > hits {
			tableHits++
		}
		fresh.Step()
		for i := range memo.apps {
			if m, f := memo.apps[i].capture(), fresh.apps[i].capture(); m != f {
				t.Fatalf("tick %d, app %s: resolver outputs diverged:\nmemo:  %+v\nfresh: %+v",
					tick, memo.apps[i].name, m, f)
			}
		}
	}
	if tableHits == 0 {
		t.Fatal("no tick was served from the wide table; the test exercised nothing")
	}
	if len(fresh.memo.index) != 0 || fresh.memo.hits != 0 {
		t.Fatalf("disabled memo touched the cache: %d keys, %d hits",
			len(fresh.memo.index), fresh.memo.hits)
	}
}

// stepConsultsTable steps e and reports whether the tick looked its
// active-thread vector up in the table: memo on, warm-up over, and a
// vector other than the one whose solve the fields already held.
func stepConsultsTable(e *Engine) bool {
	memoOK := !e.memo.disabled && e.nowMs >= e.warmupMaxUntilMs
	last := memoEntry{vec: append([]uint16(nil), e.memo.lastVec...)}
	lastOK := e.memo.lastOK
	e.Step()
	return memoOK && !(lastOK && last.holds(e.apps))
}

// referenceStep is Engine.Step with the resolvers in their straightforward
// form: no memo, and the cache and bandwidth resolvers of
// referenceResolveCache and referenceResolveMemBW, which evaluate the miss
// ratio curve at every point instead of reusing the topology's values.
func referenceStep(e *Engine) {
	dt := e.tick
	tickEnd := float64(e.tickCount+1) * e.tick
	for _, a := range e.apps {
		a.arrive(e.nowMs, dt)
	}
	for _, a := range e.apps {
		a.activeThreads = a.runnableThreads()
	}
	e.resolveCores()
	referenceResolveCache(e)
	referenceResolveMemBW(e)
	e.progress(dt, tickEnd)
	e.tickCount++
	e.nowMs = tickEnd
}

// referenceResolveCache is resolveCache calling MissRatio in every round.
func referenceResolveCache(e *Engine) {
	for i, a := range e.apps {
		a.isoWays = e.topo.byApp[i].isoWays
		a.effWays = a.isoWays
	}
	for si := range e.topo.shared {
		g := e.topo.shared[si].region
		if g.Ways == 0 {
			continue
		}
		var members []*appState
		for _, ai := range e.topo.shared[si].members {
			if a := e.apps[ai]; a.activeThreads > 0 {
				members = append(members, a)
			}
		}
		if len(members) == 0 {
			continue
		}
		w := float64(g.Ways)
		share := make([]float64, len(members))
		pressure := make([]float64, len(members))
		for i := range share {
			share[i] = w / float64(len(members))
		}
		for iter := 0; iter < 3; iter++ {
			total := 0.0
			for i, a := range members {
				miss := a.cache().MissRatio(a.isoWays + share[i])
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
		for i, a := range members {
			a.effWays += share[i]
		}
	}
}

// referenceResolveMemBW is resolveMemBW calling MissRatio at every app's
// effective ways.
func referenceResolveMemBW(e *Engine) {
	unitGBps := e.spec.MemBWGBps / float64(e.spec.MemBWUnits)
	reqs := make([]bwReq, len(e.apps))
	miss := make([]float64, len(e.apps))
	for i, a := range e.apps {
		m := a.cache().MissRatio(a.effWays)
		if e.nowMs < a.warmupUntilMs {
			frac := (a.warmupUntilMs - e.nowMs) / e.tun.WarmupMs
			m += e.tun.WarmupMissBoost * frac
		}
		if m > 1 {
			m = 1
		}
		miss[i] = m
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

// TestWideSolveMatchesReferenceResolvers runs the production engine (memo
// on, per-allocation miss ratios reused) against referenceStep over the
// 16-application node, repartitioned every 500 ticks through each warm-up
// decay, and demands bit-identical resolver outputs at every tick. Midway
// through each later epoch every captured wide entry is forged into a hash
// collision — its vector no longer the one that hashed to its key, its
// solve scribbled over — so a lookup that trusts the key alone serves a
// wrong solve. The test also checks that each reuse it guards was
// exercised: apps taking no shared ways, changing active-member counts,
// a changed isolated region, and lookups of forged keys.
func TestWideSolveMatchesReferenceResolvers(t *testing.T) {
	prod, allocs := wideEngine(t, wideLoads)
	ref, _ := wideEngine(t, wideLoads)
	forged := map[uint64]bool{}
	forgedLookups, isoTicks := 0, 0
	counts := map[int]bool{}
	for tick := 0; tick < 6000; tick++ {
		if tick%500 == 0 {
			for _, e := range []*Engine{prod, ref} {
				if err := e.SetAllocation(allocs[tick/500%2]); err != nil {
					t.Fatal(err)
				}
			}
			clear(forged)
		}
		if tick >= 1000 && tick%500 == 300 {
			for k, i := range prod.memo.index {
				if i == seenOnce {
					continue
				}
				en := &prod.memo.entries[i]
				en.vec[0] ^= 0x4000
				for i := range en.st {
					en.st[i].slowdown = -1
					en.st[i].rateIso = -1
				}
				forged[k] = true
			}
		}
		if stepConsultsTable(prod) && forged[memoKey(prod.apps)] {
			forgedLookups++
		}
		referenceStep(ref)
		active := 0
		for i, a := range prod.apps {
			if a.activeThreads > 0 {
				active++
			} else if i == 0 && tick >= 500 {
				isoTicks++
			}
		}
		counts[active] = true
		for i := range prod.apps {
			if p, r := prod.apps[i].capture(), ref.apps[i].capture(); p != r {
				t.Fatalf("tick %d, app %s: production and reference solves diverged:\nprod: %+v\nref:  %+v",
					tick, prod.apps[i].name, p, r)
			}
		}
	}
	if forgedLookups == 0 {
		t.Error("no tick looked up a forged key; the collision check went untested")
	}
	if isoTicks == 0 {
		t.Error("app 0 never ran without shared ways after a repartition; isoMiss went untested")
	}
	if len(counts) < 3 {
		t.Errorf("active-member counts %v barely varied; evenMiss indexing went untested", counts)
	}
}

// TestSolveStatsCountEveryTick pins SolveStats' accounting: every tick is
// either served without the resolvers (memo hit, fast-forward) or is one
// resolver run, including warm-up ticks and every tick of a memo-disabled
// engine, so hits + solves equals the tick count.
func TestSolveStatsCountEveryTick(t *testing.T) {
	check := func(name string, e *Engine) {
		t.Helper()
		hits, solves := e.SolveStats()
		if got := hits + solves; got != uint64(e.tickCount) {
			t.Errorf("%s: hits %d + solves %d = %d, want %d ticks", name, hits, solves, got, e.tickCount)
		}
	}

	// A repartition every 500 ticks opens a warm-up window each time.
	wide, allocs := wideEngine(t, wideLoads)
	off, _ := wideEngine(t, wideLoads)
	off.memo.disabled = true
	for w := 0; w < 6; w++ {
		for _, e := range []*Engine{wide, off} {
			if err := e.SetAllocation(allocs[w%2]); err != nil {
				t.Fatal(err)
			}
			e.RunWindow(500)
		}
		check("wide, repartitioned", wide)
		check("memo disabled", off)
	}
	if _, solves := off.SolveStats(); solves != uint64(off.tickCount) {
		t.Errorf("memo-disabled engine: %d solves, want one per tick (%d)", solves, off.tickCount)
	}

	// Sparse open-loop load with long idle stretches fast-forwards.
	x := workload.MustLC("xapian")
	s := workload.MustBE("stream")
	sparse, err := New(Config{
		Spec: machine.DefaultSpec(),
		Seed: 3,
		Apps: []AppConfig{
			{LC: &x, Load: trace.Steps{{StartMs: 0, Frac: 0}, {StartMs: 300, Frac: 0.2}, {StartMs: 350, Frac: 0}}},
			{BE: &s},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		sparse.RunWindow(500)
		check("sparse", sparse)
	}
	if sparse.skippedTicks == 0 {
		t.Error("the sparse engine never fast-forwarded; the test exercised nothing")
	}
}
