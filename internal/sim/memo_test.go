package sim

import (
	"testing"

	"ahq/internal/machine"
	"ahq/internal/trace"
	"ahq/internal/workload"
)

// memoPairEngine builds one engine of the standard four-application mix.
func memoPairEngine(t *testing.T) *Engine {
	t.Helper()
	x, m, i := workload.MustLC("xapian"), workload.MustLC("moses"), workload.MustLC("img-dnn")
	s := workload.MustBE("stream")
	e, err := New(Config{
		Spec: machine.DefaultSpec(),
		Seed: 11,
		Apps: []AppConfig{
			{LC: &x, Load: trace.Constant(0.5)},
			{LC: &m, Load: trace.Constant(0.3)},
			{LC: &i, Load: trace.Constant(0.2)},
			{BE: &s},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestMemoizedTickMatchesFreshSolve runs two identically configured engines
// — one with the solve memo, one forced through the fresh resolvers every
// tick — through steady state, an allocation change, the warm-up decay it
// triggers, and steady state again, demanding bit-for-bit identical
// resolver outputs and simulation time at every tick.
func TestMemoizedTickMatchesFreshSolve(t *testing.T) {
	memo := memoPairEngine(t)
	fresh := memoPairEngine(t)
	fresh.memo.disabled = true

	names := memo.AppNames()
	repartition := machine.Allocation{Regions: []machine.Region{
		{Name: "iso", Kind: machine.Isolated, Cores: 4, Ways: 8, BWUnits: 4,
			Apps: []string{names[0]}},
		{Name: "shared", Kind: machine.Shared, Policy: machine.LCPriority,
			Cores: memo.Spec().Cores - 4, Ways: memo.Spec().LLCWays - 8,
			BWUnits: memo.Spec().MemBWUnits - 4, Apps: names},
	}}

	compare := func(phase string) {
		t.Helper()
		if memo.nowMs != fresh.nowMs {
			t.Fatalf("%s: time diverged: %v (memo) != %v (fresh)", phase, memo.nowMs, fresh.nowMs)
		}
		for i := range memo.apps {
			if m, f := memo.apps[i].capture(), fresh.apps[i].capture(); m != f {
				t.Fatalf("%s, t=%v, app %s: resolver outputs diverged:\nmemo:  %+v\nfresh: %+v",
					phase, memo.nowMs, names[i], m, f)
			}
		}
	}

	step := func(phase string, ticks int) {
		for i := 0; i < ticks; i++ {
			memo.Step()
			fresh.Step()
			compare(phase)
		}
	}

	step("initial steady state", 400)
	if err := memo.SetAllocation(repartition); err != nil {
		t.Fatal(err)
	}
	if err := fresh.SetAllocation(repartition); err != nil {
		t.Fatal(err)
	}
	// WarmupMs is 50 by default: cover the decay and well past it.
	step("warm-up decay", 60)
	step("post-warm-up steady state", 400)

	if memo.memo.hits == 0 {
		t.Fatal("memo never hit; the test exercised nothing")
	}
	if len(fresh.memo.index) != 0 || fresh.memo.hits != 0 {
		t.Fatalf("disabled memo touched the cache: %d keys, %d hits",
			len(fresh.memo.index), fresh.memo.hits)
	}
}

// TestMemoBypassedDuringWarmup pins the warm-up gate: while any
// application's warm-up window is open the solve is time-dependent, so the
// memo must neither serve nor store entries.
func TestMemoBypassedDuringWarmup(t *testing.T) {
	e := memoPairEngine(t)
	for e.NowMs() < 200 {
		e.Step()
	}
	names := e.AppNames()
	alloc := machine.Allocation{Regions: []machine.Region{
		{Name: "iso", Kind: machine.Isolated, Cores: 2, Ways: 6, BWUnits: 2,
			Apps: []string{names[1]}},
		{Name: "shared", Kind: machine.Shared, Policy: machine.FairShare,
			Cores: e.Spec().Cores - 2, Ways: e.Spec().LLCWays - 6,
			BWUnits: e.Spec().MemBWUnits - 2, Apps: names},
	}}
	if err := e.SetAllocation(alloc); err != nil {
		t.Fatal(err)
	}
	if e.warmupMaxUntilMs <= e.nowMs {
		t.Fatal("repartition did not open a warm-up window; test is vacuous")
	}
	hits := e.memo.hits
	for e.nowMs < e.warmupMaxUntilMs {
		e.Step()
	}
	if e.memo.hits != hits || len(e.memo.index) != 0 {
		t.Errorf("memo served %d ticks and holds %d keys after warm-up, want 0 and 0",
			e.memo.hits-hits, len(e.memo.index))
	}
	e.Step()
	if e.memo.hits == hits && len(e.memo.index) == 0 {
		t.Error("memo still bypassed after warm-up closed")
	}
}

// TestMemoStopsStoringAtCapacity pins the overflow policy: at
// memoMaxEntries the table keeps its existing entries and simply stops
// caching new vectors, rather than churning through clear-and-refill.
func TestMemoStopsStoringAtCapacity(t *testing.T) {
	e := memoPairEngine(t)
	e.memo.index = make(map[uint64]int32, memoMaxEntries)
	for i := 0; i < memoMaxEntries; i++ {
		e.memo.index[^uint64(i)] = 0
	}
	e.memo.entries = []memoEntry{{}}
	for e.NowMs() < 100 {
		e.Step()
	}
	if len(e.memo.index) != memoMaxEntries || len(e.memo.entries) != 1 {
		t.Errorf("full table changed size to %d keys, %d entries, want %d and 1 kept as-is",
			len(e.memo.index), len(e.memo.entries), memoMaxEntries)
	}
	if e.memo.solves == 0 {
		t.Error("no fresh solves recorded at capacity; test is vacuous")
	}
}

// TestTickTimeIsDerivedNotAccumulated pins the drift fix: simulation time
// is tickCount*tick (one rounding total), not repeated += tick. With a
// fractional tick the accumulated form drifts measurably within ten
// thousand ticks; the derived form must stay exact.
func TestTickTimeIsDerivedNotAccumulated(t *testing.T) {
	x := workload.MustLC("xapian")
	e, err := New(Config{
		Spec:   machine.DefaultSpec(),
		Seed:   3,
		TickMs: 0.1,
		Apps:   []AppConfig{{LC: &x, Load: trace.Constant(0.2)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	accumulated := 0.0
	for w := 0; w < 20; w++ {
		e.RunWindow(50)
	}
	for i := int64(0); i < e.tickCount; i++ {
		accumulated += e.tick
	}
	if want := float64(e.tickCount) * e.tick; e.nowMs != want {
		t.Errorf("nowMs = %v, want tickCount*tick = %v", e.nowMs, want)
	}
	if accumulated == e.nowMs {
		t.Skip("accumulation happens to be exact at this tick; drift not observable")
	}
	// The two forms genuinely differ at this tick size, so the invariant
	// above is load-bearing, not vacuous.
}

// TestMemoFullTableLeavesTableAndFreelist pins the full-table miss path:
// once the table holds memoMaxEntries keys, a miss must neither take a
// slot nor copy the solve out — the table and the spare slots stay exactly
// as they were — while every tick still matches a memo-disabled engine.
// Both admission rules are covered: the packed key of up to memoSmallApps
// applications and the hashed wide key beyond.
func TestMemoFullTableLeavesTableAndFreelist(t *testing.T) {
	x, m, i := workload.MustLC("xapian"), workload.MustLC("moses"), workload.MustLC("img-dnn")
	s, f := workload.MustBE("stream"), workload.MustBE("fluidanimate")
	small := []AppConfig{
		{LC: &x, Load: trace.Constant(0.5)},
		{LC: &m, Load: trace.Constant(0.3)},
		{BE: &s},
	}
	large := append(append([]AppConfig(nil), small...),
		AppConfig{LC: &i, Load: trace.Constant(0.2)}, AppConfig{BE: &f})
	for _, apps := range [][]AppConfig{small, large} {
		build := func() *Engine {
			e, err := New(Config{Spec: machine.DefaultSpec(), Seed: 11, Apps: apps})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		memo, fresh := build(), build()
		fresh.memo.disabled = true
		// Fill the table with keys no real vector hits: packed keys with
		// the top 16-bit lane at 0xffff threads, each pointing at a
		// captured solve with no vector, which a wide lookup (on a hash
		// collision) must reject and admit must keep.
		memo.memo.index = make(map[uint64]int32, memoMaxEntries)
		for k := 0; k < memoMaxEntries; k++ {
			memo.memo.index[^uint64(k)] = 0
		}
		// Slot 0 is the held solve; slot 1, spare capacity that the
		// next capture would reuse, is the sentinel.
		sentinel := make([]appResolve, len(apps))
		memo.memo.entries = []memoEntry{
			{st: make([]appResolve, len(apps))},
			{st: sentinel, vec: make([]uint16, len(apps))},
		}[:1]
		for tick := 0; tick < 400; tick++ {
			memo.Step()
			fresh.Step()
			for j := range memo.apps {
				if a, b := memo.apps[j].capture(), fresh.apps[j].capture(); a != b {
					t.Fatalf("%d apps, tick %d, app %d: full-table solve diverged:\nmemo:  %+v\nfresh: %+v", len(apps), tick, j, a, b)
				}
			}
		}
		if memo.memo.solves == 0 {
			t.Fatalf("%d apps: no miss at capacity; the test exercised nothing", len(apps))
		}
		if n, m := len(memo.memo.index), len(memo.memo.entries); n != memoMaxEntries || m != 1 {
			t.Errorf("%d apps: full table changed size to %d keys, %d entries", len(apps), n, m)
		}
		for _, r := range sentinel {
			if r != (appResolve{}) {
				t.Fatalf("%d apps: a solve was captured into a spare slot", len(apps))
			}
		}
	}
}
