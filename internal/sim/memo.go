package sim

// The three contention resolvers — resolveCores, resolveCache, resolveMemBW
// — are a pure function of three inputs: the applied allocation, each
// application's active-thread count, and the cache warm-up state. The first
// changes only at SetAllocation, the second takes a handful of values per
// application at steady load, and the third is a bounded transient after a
// repartition. So the common-case tick repeats a solve the engine has
// already done, fixed point and all.
//
// resolveMemo caches those solves in one table keyed on the active-thread
// vector; the allocation "epoch" is represented by clearing the table
// whenever the allocation actually changes, and warm-up is handled by
// refusing to consult the table while any application's warm-up window is
// still open (during warm-up the miss ratio depends continuously on
// simulation time). A hit restores the stored per-application outputs
// verbatim — the floats were produced by the very computation being
// skipped, never recomputed in a different order — so a memoized tick is
// bit-for-bit identical to a fresh solve (pinned by
// TestMemoizedTickMatchesFreshSolve and its wide variant).
//
// The table has two admission rules, chosen by application count:
//
//   - Up to memoSmallApps applications (every catalog mix) the key is the
//     packed vector itself, 16 bits per application: exact, so a solve is
//     captured on its first miss.
//   - Beyond that the key is FNV-1a over the vector, and the entry keeps
//     the vector, which a lookup compares: a hash collision is only a
//     miss. A wide vector is captured on its second sighting under the
//     allocation; the first miss records the key alone. A wide node under
//     a controller that repartitions every epoch rarely sees a vector
//     twice, and copying every application's solve out on each miss would
//     be pure overhead there.

// memoMaxEntries bounds the table. The active-thread vector takes few
// distinct values at steady load, so the bound exists only to keep
// adversarial load patterns (wildly varying thread counts across many
// applications) from growing the table without limit. Once full, new
// solves simply go uncached: the entries that got in first are the
// vectors of the early steady state — exactly the hot ones — and
// retaining them avoids the permanent insert-and-evict churn (one capture
// per tick, forever) that dropping the table would cause under a
// high-entropy load that refills it immediately. Keys recorded on a wide
// vector's first sighting count toward the bound.
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
// — including every catalog mix — key the memo on the packed integer.
const memoSmallApps = 4

// FNV-1a parameters for the wide-vector key.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// memoEntry is one captured solve: every application's resolver outputs
// and the active-thread vector they belong to, which only a wide lookup
// needs to compare (packed keys are exact).
type memoEntry struct {
	st  []appResolve
	vec []uint16
}

// seenOnce is the index value of a wide vector seen once and not captured.
const seenOnce = -1

// resolveMemo is the engine's solve cache: one table, index, from key to
// a slot of entries.
type resolveMemo struct {
	index map[uint64]int32
	// entries holds the captured solves. invalidate truncates it, and the
	// next epoch's captures reuse the truncated slots' slices: every
	// allocation change clears the table, and without reuse re-capturing
	// the repeated vectors would allocate per vector per epoch for the
	// life of the run. A slot index keeps the map's values small, so a
	// lookup reads no more than the slot it hits.
	entries []memoEntry
	// lastVec/lastOK record the active-thread vector whose solve the
	// per-app contention fields currently hold, valid only outside warm-up
	// and under the current allocation. When the next tick presents the
	// same vector the fields are already exactly right — the steady-state
	// common case — and resolveContention returns without touching the
	// table at all.
	lastVec []uint16
	lastOK  bool
	// hits counts ticks served without running the resolvers (the same
	// fast path and table hits); solves counts resolver runs, warm-up and
	// memo-disabled ones included. Every tick is exactly one of the two.
	// Instrumentation for tests and benchmarks.
	hits, solves uint64
	// disabled forces every tick through the fresh solve; the differential
	// tests use it to compare memoized and unmemoized engines.
	disabled bool
}

// invalidate drops every cached solve; called when the allocation changes.
func (m *resolveMemo) invalidate() {
	clear(m.index)
	m.entries = m.entries[:0]
	m.lastOK = false
}

// memoKey returns the table key of the active-thread vector: the packed
// vector for up to memoSmallApps applications, FNV-1a over its
// little-endian bytes beyond.
func memoKey(apps []*appState) uint64 {
	if len(apps) <= memoSmallApps {
		var k uint64
		for i, a := range apps {
			k |= uint64(uint16(a.activeThreads)) << (16 * uint(i))
		}
		return k
	}
	h := uint64(fnvOffset64)
	for _, a := range apps {
		t := uint16(a.activeThreads)
		h = (h ^ uint64(t&0xff)) * fnvPrime64
		h = (h ^ uint64(t>>8)) * fnvPrime64
	}
	return h
}

// lookup returns the captured solve of the current vector, or nil.
func (m *resolveMemo) lookup(key uint64, apps []*appState) []appResolve {
	i, ok := m.index[key]
	if !ok || i == seenOnce {
		return nil
	}
	en := &m.entries[i]
	if len(apps) > memoSmallApps && !en.holds(apps) {
		return nil
	}
	return en.st
}

// holds reports whether the entry's vector is the current one.
func (en *memoEntry) holds(apps []*appState) bool {
	if len(en.vec) != len(apps) {
		return false
	}
	for i, a := range apps {
		if en.vec[i] != uint16(a.activeThreads) {
			return false
		}
	}
	return true
}

// admit offers the solve the per-app fields now hold, after a lookup of
// key missed: a packed key captures it, a wide key records its first
// sighting and captures on the second. A full table takes no new keys —
// the entries that got in first are the vectors of the early steady state,
// the hot ones — but still promotes a recorded one, which does not grow
// it. A key whose captured solve belongs to another wide vector (a hash
// collision) keeps it.
func (m *resolveMemo) admit(key uint64, apps []*appState) {
	if m.index == nil {
		m.index = make(map[uint64]int32) //ahqlint:allow hotpath miss-path-only: lazily builds the table once per run
	}
	if len(apps) > memoSmallApps {
		i, seen := m.index[key]
		if !seen {
			if len(m.index) < memoMaxEntries {
				m.index[key] = seenOnce
			}
			return
		}
		if i != seenOnce {
			return
		}
	} else if len(m.index) >= memoMaxEntries {
		return
	}
	m.index[key] = m.capture(apps)
}

// capture copies every application's resolver outputs and the vector into
// the next slot of entries, reusing its slices when it has them, and
// returns the slot.
func (m *resolveMemo) capture(apps []*appState) int32 {
	k := len(m.entries)
	if k < cap(m.entries) {
		m.entries = m.entries[:k+1]
	} else {
		m.entries = append(m.entries, memoEntry{}) //ahqlint:allow hotpath amortized: the slots outlive invalidate, so this grows once per run
	}
	en := &m.entries[k]
	n := len(apps)
	if cap(en.st) < n || cap(en.vec) < n {
		en.st = make([]appResolve, n) //ahqlint:allow hotpath miss-path-only: runs once per slot per run
		en.vec = make([]uint16, n)
	}
	en.st, en.vec = en.st[:n], en.vec[:n]
	for i, a := range apps {
		en.st[i] = a.capture()
		en.vec[i] = uint16(a.activeThreads)
	}
	return int32(k)
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
	var key uint64
	if memoOK {
		key = memoKey(e.apps)
		if st := e.memo.lookup(key, e.apps); st != nil {
			e.memo.hits++
			for i, a := range e.apps {
				a.restore(&st[i])
			}
			e.memo.noteVector(e.apps)
			return
		}
	}
	e.resolveCores()
	e.resolveCache()
	e.resolveMemBW()
	e.memo.solves++
	if !memoOK {
		// A warm-up (or disabled) solve is time-dependent; the fields do
		// not represent the vector's steady-state solve.
		e.memo.lastOK = false
		return
	}
	e.memo.admit(key, e.apps)
	e.memo.noteVector(e.apps)
}
