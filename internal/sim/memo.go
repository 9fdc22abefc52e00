package sim

// The three contention resolvers — resolveCores, resolveCache, resolveMemBW
// — are a pure function of three inputs: the applied allocation, each
// application's active-thread count, and the cache warm-up state. The first
// changes only at SetAllocation, the second takes a handful of values per
// application at steady load, and the third is a bounded transient after a
// repartition. So the common-case tick repeats a solve the engine has
// already done, fixed point and all.
//
// resolveMemo caches those solves. The key is the active-thread vector
// (two little-endian bytes per application, in configuration order); the
// allocation "epoch" is represented by clearing the table whenever the
// allocation actually changes, and warm-up is handled by refusing to
// consult the table while any application's warm-up window is still open
// (during warm-up the miss ratio depends continuously on simulation time).
// A hit restores the stored per-application outputs verbatim — the floats
// were produced by the very computation being skipped, never recomputed in
// a different order — so a memoized tick is bit-for-bit identical to a
// fresh solve (pinned by TestMemoizedTickMatchesFreshSolve).

// memoMaxEntries bounds the table. The active-thread vector takes few
// distinct values at steady load, so the bound exists only to keep
// adversarial load patterns (wildly varying thread counts across many
// applications) from growing the table without limit. Once full, new
// solves simply go uncached: the entries that got in first are the
// vectors of the early steady state — exactly the hot ones — and
// retaining them avoids the permanent insert-and-evict churn (one slice
// and one key allocation per tick, forever) that dropping the table
// would cause under a high-entropy load that refills it immediately.
const memoMaxEntries = 1 << 12

// appResolve is the complete resolver output for one application — every
// appState field the three resolvers write. Restoring it must leave the
// application exactly as a fresh solve would.
type appResolve struct {
	isoCores       int
	isoShare       float64
	sharedThreads  int
	sharedShare    float64
	sharedCrowded  bool
	sharedPolluted bool
	dispatchDelay  float64
	totalCoreShare float64
	isoWays        float64
	effWays        float64
	slowdown       float64
	rateIso        float64
	rateShared     float64
}

// memoSmallApps is the largest application count whose active-thread
// vector fits packed into a uint64 (16 bits per app); those configurations
// — including every catalog mix — key the memo on the packed integer,
// avoiding the string-key hash and equality walk on every tick.
const memoSmallApps = 4

// resolveMemo is the engine's solve cache plus its reusable key buffer.
// Exactly one of entries64/entries is populated, chosen by app count.
type resolveMemo struct {
	entries64 map[uint64][]appResolve
	entries   map[string][]appResolve
	key       []byte
	// lastVec/lastOK record the active-thread vector whose solve the
	// per-app contention fields currently hold, valid only outside warm-up
	// and under the current allocation. When the next tick presents the
	// same vector the fields are already exactly right — the steady-state
	// common case — and resolveContention returns without touching the
	// table at all. lastOK doubles as the event-driven clock's licence to
	// elide resolves entirely (engine.go: nextEventTick).
	lastVec []uint16
	lastOK  bool
	// hits and misses instrument the cache for tests and benchmarks.
	hits, misses uint64
	// disabled forces every tick through the fresh solve; the differential
	// tests use it to compare memoized and unmemoized engines.
	disabled bool
	// free recycles value slices across invalidations. Every allocation
	// change clears the table, and the following window re-captures a
	// solve per active-thread vector; without recycling that is a slice
	// allocation per vector per epoch for the life of the run.
	free [][]appResolve
}

// invalidate drops every cached solve; called when the allocation changes.
// The value slices are kept for reuse by the next epoch's captures.
func (m *resolveMemo) invalidate() {
	for k, v := range m.entries {
		m.free = append(m.free, v)
		delete(m.entries, k)
	}
	for k, v := range m.entries64 {
		m.free = append(m.free, v)
		delete(m.entries64, k)
	}
	m.lastOK = false
}

// grab returns a capture slice of length n, recycled when one is free.
func (m *resolveMemo) grab(n int) []appResolve {
	if k := len(m.free); k > 0 {
		st := m.free[k-1]
		m.free = m.free[:k-1]
		if cap(st) >= n {
			return st[:n]
		}
	}
	//ahqlint:allow hotpath miss-path-only: runs once per new vector per epoch when the freelist is empty
	return make([]appResolve, n)
}

// noteVector records the current active-thread vector as the one whose
// solve the per-app contention fields now hold.
func (m *resolveMemo) noteVector(apps []*appState) {
	if cap(m.lastVec) < len(apps) {
		m.lastVec = make([]uint16, len(apps)) //ahqlint:allow hotpath capacity-guarded: allocates once, first call
	}
	m.lastVec = m.lastVec[:len(apps)]
	for i, a := range apps {
		m.lastVec[i] = uint16(a.activeThreads)
	}
	m.lastOK = true
}

// buildKey serialises the active-thread vector into the reusable buffer.
func (m *resolveMemo) buildKey(apps []*appState) []byte {
	k := m.key[:0]
	for _, a := range apps {
		t := a.activeThreads
		k = append(k, byte(t), byte(t>>8)) //ahqlint:allow hotpath amortized: the key buffer reuses its backing array across ticks
	}
	m.key = k
	return k
}

// capture copies the resolver outputs out of the application state.
func (a *appState) capture() appResolve {
	return appResolve{
		isoCores:       a.isoCores,
		isoShare:       a.isoShare,
		sharedThreads:  a.sharedThreads,
		sharedShare:    a.sharedShare,
		sharedCrowded:  a.sharedCrowded,
		sharedPolluted: a.sharedPolluted,
		dispatchDelay:  a.dispatchDelay,
		totalCoreShare: a.totalCoreShare,
		isoWays:        a.isoWays,
		effWays:        a.effWays,
		slowdown:       a.slowdown,
		rateIso:        a.rateIso,
		rateShared:     a.rateShared,
	}
}

// restore writes a cached solve back into the application state.
func (a *appState) restore(r *appResolve) {
	a.isoCores = r.isoCores
	a.isoShare = r.isoShare
	a.sharedThreads = r.sharedThreads
	a.sharedShare = r.sharedShare
	a.sharedCrowded = r.sharedCrowded
	a.sharedPolluted = r.sharedPolluted
	a.dispatchDelay = r.dispatchDelay
	a.totalCoreShare = r.totalCoreShare
	a.isoWays = r.isoWays
	a.effWays = r.effWays
	a.slowdown = r.slowdown
	a.rateIso = r.rateIso
	a.rateShared = r.rateShared
}

// resolveContention computes the tick's contention state, through the memo
// when possible. Memoization is skipped while any application is warming up
// (the transient makes the solve time-dependent) and while disabled.
//
//ahq:hotpath
func (e *Engine) resolveContention() {
	memoOK := !e.memo.disabled && e.nowMs >= e.warmupMaxUntilMs
	same := memoOK && e.memo.lastOK
	for i, a := range e.apps {
		t := a.runnableThreads()
		a.activeThreads = t
		if same && e.memo.lastVec[i] != uint16(t) {
			same = false
		}
	}
	if same {
		// The fields already hold this exact vector's solve; restoring the
		// cached entry would write back the values that are already there.
		e.memo.hits++
		return
	}
	small := len(e.apps) <= memoSmallApps
	var key64 uint64
	if memoOK {
		if small {
			for i, a := range e.apps {
				key64 |= uint64(uint16(a.activeThreads)) << (16 * uint(i))
			}
			if st, ok := e.memo.entries64[key64]; ok {
				e.memo.hits++
				for i, a := range e.apps {
					a.restore(&st[i])
				}
				e.memo.noteVector(e.apps)
				return
			}
		} else {
			key := e.memo.buildKey(e.apps)
			if st, ok := e.memo.entries[string(key)]; ok {
				e.memo.hits++
				for i, a := range e.apps {
					a.restore(&st[i])
				}
				e.memo.noteVector(e.apps)
				return
			}
		}
	}
	e.resolveCores()
	e.resolveCache()
	e.resolveMemBW()
	if !memoOK {
		// A warm-up (or disabled) solve is time-dependent; the fields do
		// not represent the vector's steady-state solve.
		e.memo.lastOK = false
		return
	}
	e.memo.misses++
	// A full table takes no more captures: check before grabbing a slice
	// and copying every application's solve out, which would only be
	// pushed back onto the freelist.
	if small {
		if e.memo.entries64 == nil {
			e.memo.entries64 = make(map[uint64][]appResolve) //ahqlint:allow hotpath miss-path-only: lazily builds the table once per run
		}
		if len(e.memo.entries64) < memoMaxEntries {
			e.memo.entries64[key64] = e.memo.capture(e.apps)
		}
	} else {
		if e.memo.entries == nil {
			e.memo.entries = make(map[string][]appResolve) //ahqlint:allow hotpath miss-path-only: lazily builds the table once per run
		}
		if len(e.memo.entries) < memoMaxEntries {
			e.memo.entries[string(e.memo.key)] = e.memo.capture(e.apps)
		}
	}
	e.memo.noteVector(e.apps)
}

// capture copies every application's resolver outputs into a (recycled)
// slice for the table.
func (m *resolveMemo) capture(apps []*appState) []appResolve {
	st := m.grab(len(apps))
	for i, a := range apps {
		st[i] = a.capture()
	}
	return st
}
