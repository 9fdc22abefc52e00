package sim

import "ahq/internal/workload"

// AppContention is an instantaneous view of one application's contention
// state — what a profiling tool (perf counters, resctrl occupancy monitors)
// would expose on real hardware. The daemon serves it for observability,
// and the white-box tests assert conservation invariants over it.
type AppContention struct {
	// Name and Class identify the application.
	Name  string
	Class workload.Class
	// ActiveThreads is how many threads wanted a core in the last tick.
	ActiveThreads int
	// IsolatedCores is the application's exclusive core count.
	IsolatedCores int
	// SharedShare is the per-thread core fraction its spill-over threads
	// received in the shared region.
	SharedShare float64
	// TotalCoreShare is the application's total core time last tick, in
	// cores.
	TotalCoreShare float64
	// EffectiveWays is its isolated plus occupancy-shared LLC ways.
	EffectiveWays float64
	// Slowdown is its combined cache+bandwidth service inflation relative
	// to the solo full-resource reference.
	Slowdown float64
	// DispatchDelayMs is the CFS wakeup delay its new requests currently
	// suffer.
	DispatchDelayMs float64
	// QueueLen is the request backlog (LC only).
	QueueLen int
}

// SolveStats reports the engine's contention-solve counters: ticks served
// without running the resolvers (memo hits) and
// resolver runs (full fixed-point solves, warm-up and memo-disabled ticks
// included). Every simulated tick counts exactly once, so hits + solves is
// the tick count. The counters are instrumentation for tests and
// benchmarks, never deterministic output.
func (e *Engine) SolveStats() (hits, solves uint64) {
	return e.memo.hits, e.memo.solves
}

// Contention returns the per-application contention snapshot from the most
// recent tick, in configuration order.
func (e *Engine) Contention() []AppContention {
	out := make([]AppContention, 0, len(e.apps))
	for _, a := range e.apps {
		out = append(out, AppContention{
			Name:            a.name,
			Class:           a.class,
			ActiveThreads:   a.activeThreads,
			IsolatedCores:   a.isoCores,
			SharedShare:     a.sharedShare,
			TotalCoreShare:  a.totalCoreShare,
			EffectiveWays:   a.effWays,
			Slowdown:        a.slowdown,
			DispatchDelayMs: a.dispatchDelay,
			QueueLen:        a.pendingLen(),
		})
	}
	return out
}
