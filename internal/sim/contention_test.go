package sim

import (
	"math"
	"testing"
	"testing/quick"

	"ahq/internal/machine"
	"ahq/internal/trace"
	"ahq/internal/workload"
)

// mixEngine builds the paper's standard 3 LC + 1 BE mix.
func mixEngine(t *testing.T, spec machine.Spec, be string, loads [3]float64, seed int64) *Engine {
	t.Helper()
	x, m, i := workload.MustLC("xapian"), workload.MustLC("moses"), workload.MustLC("img-dnn")
	b := workload.MustBE(be)
	e, err := New(Config{
		Spec: spec,
		Seed: seed,
		Apps: []AppConfig{
			{LC: &x, Load: trace.Constant(loads[0])},
			{LC: &m, Load: trace.Constant(loads[1])},
			{LC: &i, Load: trace.Constant(loads[2])},
			{BE: &b},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// measure runs warm-up plus a horizon and returns (xapian p95, BE IPC).
func measure(e *Engine, beName string) (float64, float64) {
	for e.NowMs() < 3_000 {
		e.RunWindow(500)
	}
	mark := e.MarkRun()
	for e.NowMs() < 15_000 {
		e.RunWindow(500)
	}
	return e.RunP95("xapian", mark), e.RunIPC(beName, mark)
}

func TestStreamInterferesMoreThanFluidanimate(t *testing.T) {
	// The Fig. 8 vs Fig. 9 contrast: under full sharing, STREAM (10
	// threads, no cache reuse, bandwidth-bound) must hurt the LC tail
	// more than Fluidanimate.
	spec := machine.DefaultSpec()
	pFluid, _ := measure(mixEngine(t, spec, "fluidanimate", [3]float64{0.3, 0.2, 0.2}, 11), "fluidanimate")
	pStream, _ := measure(mixEngine(t, spec, "stream", [3]float64{0.3, 0.2, 0.2}, 11), "stream")
	if pStream <= pFluid {
		t.Errorf("stream p95 %.2f <= fluidanimate p95 %.2f; severe interference missing", pStream, pFluid)
	}
}

func TestIsolationProtectsAgainstStream(t *testing.T) {
	// Partitioning xapian away from STREAM must cut its tail latency
	// versus full sharing — the premise of every isolation strategy.
	spec := machine.DefaultSpec()
	shared := mixEngine(t, spec, "stream", [3]float64{0.5, 0.2, 0.2}, 13)
	pShared, _ := measure(shared, "stream")

	iso := mixEngine(t, spec, "stream", [3]float64{0.5, 0.2, 0.2}, 13)
	alloc := machine.Allocation{Regions: []machine.Region{
		{Name: "iso:xapian", Kind: machine.Isolated, Cores: 4, Ways: 8, BWUnits: 3, Apps: []string{"xapian"}},
		{Name: "shared", Kind: machine.Shared, Policy: machine.LCPriority, Cores: 6, Ways: 12, BWUnits: 7,
			Apps: []string{"img-dnn", "moses", "stream"}},
	}}
	if err := iso.SetAllocation(alloc); err != nil {
		t.Fatal(err)
	}
	pIso, _ := measure(iso, "stream")
	if pIso >= pShared {
		t.Errorf("isolated p95 %.2f >= shared p95 %.2f; CAT partitioning has no effect", pIso, pShared)
	}
}

func TestLCPrioritySharingBeatsFairForLC(t *testing.T) {
	// LC-first's premise: priority in the shared region cuts LC latency
	// relative to CFS, at the BE application's expense.
	spec := machine.DefaultSpec().Shrink(6, 20)
	fair := mixEngine(t, spec, "fluidanimate", [3]float64{0.3, 0.2, 0.2}, 17)
	pFair, ipcFair := measure(fair, "fluidanimate")

	prio := mixEngine(t, spec, "fluidanimate", [3]float64{0.3, 0.2, 0.2}, 17)
	if err := prio.SetAllocation(machine.AllShared(spec, machine.LCPriority, prio.AppNames())); err != nil {
		t.Fatal(err)
	}
	pPrio, ipcPrio := measure(prio, "fluidanimate")
	if pPrio >= pFair {
		t.Errorf("LC-priority p95 %.2f >= fair p95 %.2f", pPrio, pFair)
	}
	if ipcPrio >= ipcFair {
		t.Errorf("LC-priority BE IPC %.2f >= fair %.2f; priority should cost BE", ipcPrio, ipcFair)
	}
}

func TestMoreWaysHelpCacheSensitiveApp(t *testing.T) {
	// Growing img-dnn's isolated ways (at fixed cores) must not hurt,
	// and should help substantially from 1 way to 10.
	spec := machine.DefaultSpec()
	p95 := func(ways int) float64 {
		e := mixEngine(t, spec, "stream", [3]float64{0.2, 0.2, 0.5}, 23)
		alloc := machine.Allocation{Regions: []machine.Region{
			{Name: "iso:img-dnn", Kind: machine.Isolated, Cores: 3, Ways: ways, BWUnits: 3, Apps: []string{"img-dnn"}},
			{Name: "shared", Kind: machine.Shared, Policy: machine.LCPriority, Cores: 7, Ways: spec.LLCWays - ways, BWUnits: 7,
				Apps: []string{"moses", "stream", "xapian"}},
		}}
		if err := e.SetAllocation(alloc); err != nil {
			t.Fatal(err)
		}
		for e.NowMs() < 3_000 {
			e.RunWindow(500)
		}
		mark := e.MarkRun()
		for e.NowMs() < 12_000 {
			e.RunWindow(500)
		}
		return e.RunP95("img-dnn", mark)
	}
	narrow, wide := p95(1), p95(10)
	if wide >= narrow {
		t.Errorf("img-dnn p95 with 10 ways (%.2f) >= with 1 way (%.2f)", wide, narrow)
	}
}

func TestMemBWSaturationSlowsVictim(t *testing.T) {
	// Shrinking the node's memory bandwidth with STREAM present must
	// slow the bandwidth-sensitive LC applications.
	wide := machine.DefaultSpec()
	narrow := wide
	narrow.MemBWGBps = 15
	pWide, _ := measure(mixEngine(t, wide, "stream", [3]float64{0.4, 0.2, 0.2}, 29), "stream")
	pNarrow, _ := measure(mixEngine(t, narrow, "stream", [3]float64{0.4, 0.2, 0.2}, 29), "stream")
	if pNarrow <= pWide {
		t.Errorf("p95 with 15 GB/s (%.2f) <= with 40 GB/s (%.2f)", pNarrow, pWide)
	}
}

func TestRepartitionWarmupCostsLatency(t *testing.T) {
	// Flip the way partition every epoch: the warm-up penalty must make
	// the flapping configuration worse than the stable one.
	spec := machine.DefaultSpec()
	allocA := machine.Allocation{Regions: []machine.Region{
		{Name: "iso:xapian", Kind: machine.Isolated, Cores: 4, Ways: 10, BWUnits: 5, Apps: []string{"xapian"}},
		{Name: "shared", Kind: machine.Shared, Policy: machine.LCPriority, Cores: 6, Ways: 10, BWUnits: 5,
			Apps: []string{"img-dnn", "moses", "stream"}},
	}}
	allocB := allocA.Clone()
	allocB.Regions[0].Ways = 4
	allocB.Regions[1].Ways = 16

	runWith := func(flap bool) float64 {
		e := mixEngine(t, spec, "stream", [3]float64{0.5, 0.2, 0.2}, 31)
		if err := e.SetAllocation(allocA); err != nil {
			t.Fatal(err)
		}
		for e.NowMs() < 2_000 {
			e.RunWindow(500)
		}
		mark := e.MarkRun()
		i := 0
		for e.NowMs() < 12_000 {
			e.RunWindow(500)
			if flap {
				i++
				next := allocA
				if i%2 == 1 {
					next = allocB
				}
				if err := e.SetAllocation(next); err != nil {
					t.Fatal(err)
				}
			}
		}
		return e.RunP95("xapian", mark)
	}
	stable, flapping := runWith(false), runWith(true)
	if flapping <= stable {
		t.Errorf("flapping p95 %.2f <= stable p95 %.2f; repartition cost missing", flapping, stable)
	}
}

func TestPoissonProperties(t *testing.T) {
	f := func(seed int64, lamRaw uint16) bool {
		lam := float64(lamRaw%5000) / 100 // [0, 50)
		e := newAppState(AppConfig{}, seed)
		n := 10_000
		sum := 0
		for i := 0; i < n; i++ {
			k := e.poissonDraw(lam)
			if k < 0 {
				return false
			}
			sum += k
		}
		if lam == 0 {
			return sum == 0
		}
		mean := float64(sum) / float64(n)
		return math.Abs(mean-lam) < math.Max(0.2, lam*0.1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCacheOccupancyConserved(t *testing.T) {
	// After resolveCache, the members' shared-way shares must sum to the
	// region's ways (no cache is created or destroyed).
	e := mixEngine(t, machine.DefaultSpec(), "stream", [3]float64{0.5, 0.5, 0.5}, 37)
	for e.NowMs() < 1_000 {
		e.Step()
	}
	totalIso := 0.0
	totalEff := 0.0
	active := 0
	for _, a := range e.apps {
		totalEff += a.effWays
		totalIso += a.isoWays
		if a.activeThreads > 0 {
			active++
		}
	}
	if active < 2 {
		t.Skip("not enough active apps this tick")
	}
	if totalEff > float64(e.spec.LLCWays)+1e-6 {
		t.Errorf("effective ways sum %.3f exceeds node ways %d", totalEff, e.spec.LLCWays)
	}
}
