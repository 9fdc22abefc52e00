package sim

import (
	"fmt"
	"math"
	"slices"

	"ahq/internal/machine"
	"ahq/internal/metrics"
	"ahq/internal/sched"
	"ahq/internal/workload"
)

// Config describes one simulation.
type Config struct {
	// Spec is the node being simulated.
	Spec machine.Spec
	// Seed makes the run reproducible; every application derives its own
	// deterministic stream from it.
	Seed int64
	// TickMs is the simulation step; 0 means 1 ms.
	TickMs float64
	// Tunables are the contention-model constants; zero value means
	// DefaultTunables.
	Tunables Tunables
	// Apps are the collocated applications.
	Apps []AppConfig
}

// wayChangeEpsilon is the smallest change in an application's static way
// entitlement (isolated plus full shared ways) that re-triggers cache
// warm-up on repartition. Entitlements are integral sums of region way
// counts, so any real repartition moves at least one whole way; the named
// threshold keeps float accumulation noise from re-warming applications
// whose entitlement did not actually change. Tests share this constant to
// pin the boundary: a delta of exactly one way warms up, a reshuffle that
// preserves the total does not.
const wayChangeEpsilon = 1.0

// Engine simulates the node. It is not safe for concurrent use.
type Engine struct {
	spec  machine.Spec
	tun   Tunables
	tick  float64
	nowMs float64
	apps  []*appState
	byIdx map[string]int
	alloc machine.Allocation
	// topo is the indexed form of alloc, recompiled on SetAllocation so
	// the tick loop never walks region membership lists (topology.go).
	topo allocTopology
	// memo caches contention solves keyed on the active-thread vector
	// (memo.go); invalidated when the allocation changes.
	memo resolveMemo
	// warmupMaxUntilMs is the latest warm-up deadline across applications;
	// the memo is bypassed until simulation time passes it.
	warmupMaxUntilMs float64
	// tickCount counts completed ticks since construction. Simulation time
	// is derived as tickCount*tick rather than accumulated with repeated
	// += tick, so nowMs carries one rounding at most and cannot drift over
	// long horizons (for the integral millisecond ticks every experiment
	// uses, both forms are exact and identical).
	tickCount int64

	// Reusable per-tick scratch for the contention resolvers.
	scratchMembers  []*appState
	scratchIdx      []int
	scratchShare    []float64
	scratchPressure []float64
	scratchMiss     []float64
	scratchReqs     []bwReq
	// snapBuf backs the AppWindow slice returned by RunWindow; reused
	// across windows.
	snapBuf []sched.AppWindow

	// windowStartMs is the simulation time at which the window being
	// accumulated began; snapshot normalises offered rates and BE IPC by
	// the actual elapsed window (nowMs - windowStartMs), which differs
	// from the nominal window length when windowMs is not an integral
	// multiple of the tick.
	windowStartMs float64

	// marks flags which run marks (MarkRun) are live, by mark. Released
	// marks are reused by the next MarkRun.
	marks []bool
}

// New validates the configuration and builds an engine. The engine starts
// with an Unmanaged allocation (everything shared, CFS policy) until a
// strategy installs its own.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Apps) == 0 {
		return nil, fmt.Errorf("sim: no applications configured")
	}
	tick := cfg.TickMs
	if tick <= 0 {
		tick = 1
	}
	tun := cfg.Tunables
	if tun == (Tunables{}) {
		tun = DefaultTunables()
	}
	e := &Engine{
		spec:  cfg.Spec,
		tun:   tun,
		tick:  tick,
		byIdx: make(map[string]int, len(cfg.Apps)),
	}
	for i, ac := range cfg.Apps {
		if (ac.LC == nil) == (ac.BE == nil) {
			return nil, fmt.Errorf("sim: app %d must set exactly one of LC or BE", i)
		}
		if ac.LC != nil {
			if err := ac.LC.Validate(); err != nil {
				return nil, err
			}
			if ac.Load == nil && ac.ClosedLoopUsers <= 0 {
				return nil, fmt.Errorf("sim: LC app %q has neither a load trace nor closed-loop users", ac.LC.Name)
			}
			if ac.ClosedLoopUsers < 0 || ac.ThinkTimeMs < 0 {
				return nil, fmt.Errorf("sim: LC app %q has negative closed-loop parameters", ac.LC.Name)
			}
		} else if err := ac.BE.Validate(); err != nil {
			return nil, err
		}
		name := ac.Name()
		if _, dup := e.byIdx[name]; dup {
			return nil, fmt.Errorf("sim: duplicate app name %q", name)
		}
		e.byIdx[name] = i
		as := newAppState(ac, cfg.Seed+int64(i+1)*0x9E3779B97F4A7C)
		as.refMiss = as.cache().MissRatio(tun.RefWays)
		as.cacheDenom = 1 + as.sens().CacheSens*as.refMiss
		e.apps = append(e.apps, as)
	}
	if err := e.SetAllocation(machine.AllShared(cfg.Spec, machine.FairShare, e.AppNames())); err != nil {
		return nil, err
	}
	return e, nil
}

// AppNames returns the configured application names in order.
func (e *Engine) AppNames() []string {
	names := make([]string, len(e.apps))
	for i, a := range e.apps {
		names[i] = a.name
	}
	return names
}

// Spec returns the node spec being simulated.
func (e *Engine) Spec() machine.Spec { return e.spec }

// NowMs returns the current simulation time.
func (e *Engine) NowMs() float64 { return e.nowMs }

// Allocation returns (a copy of) the allocation currently applied.
func (e *Engine) Allocation() machine.Allocation { return e.alloc.Clone() }

// SetAllocation validates and applies a new partitioning, compiling its
// indexed topology and triggering cache warm-up for every application whose
// effective way entitlement changed. Applying an allocation equal to the
// current one is free.
func (e *Engine) SetAllocation(a machine.Allocation) error {
	if err := a.Validate(e.spec, e.AppNames()); err != nil {
		return err
	}
	if e.alloc.Equal(a) {
		return nil
	}
	clone := a.Clone()
	topo, err := e.compileTopology(&clone)
	if err != nil {
		return err
	}
	e.alloc = clone
	e.topo = topo
	e.memo.invalidate()
	// Trigger warm-up where the way entitlement changed. Entitlement here
	// is the static upper bound (isolated + full shared), which changes
	// exactly when the partitioning moved ways around this application.
	for i, app := range e.apps {
		entitled := topo.byApp[i].entitledWays
		if app.haveAllocation && math.Abs(entitled-app.lastWays) >= wayChangeEpsilon {
			app.warmupUntilMs = e.nowMs + e.tun.WarmupMs
		}
		app.lastWays = entitled
		app.haveAllocation = true
		if app.warmupUntilMs > e.warmupMaxUntilMs {
			e.warmupMaxUntilMs = app.warmupUntilMs
		}
	}
	return nil
}

// Step advances the simulation by one tick.
func (e *Engine) Step() {
	dt := e.tick
	tickEnd := float64(e.tickCount+1) * e.tick
	for _, a := range e.apps {
		a.arrive(e.nowMs, dt)
	}
	e.resolveContention()
	e.progress(dt, tickEnd)
	e.tickCount++
	e.nowMs = tickEnd
}

// RunWindow advances the simulation by one monitoring interval and returns
// each application's observation for it.
//
// The returned slice is backed by an engine-owned buffer that the next
// RunWindow call reuses; callers that retain observations across windows
// must copy them first.
//
//ahq:hotpath
func (e *Engine) RunWindow(windowMs float64) []sched.AppWindow {
	e.windowStartMs = e.nowMs
	endTick := e.tickCount + windowTicks(windowMs, e.tick)
	for e.tickCount < endTick {
		e.Step()
	}
	return e.snapshot(e.nowMs - e.windowStartMs)
}

// windowTicks converts a window length into a whole number of ticks: the
// count of tick starts in [0, windowMs) after rounding the boundary to the
// nearest tick (ties toward fewer ticks, the same choice the previous
// float guard `nowMs < end - tick/2` made). Deriving window ends from
// integer tick counts keeps window boundaries exact tick multiples at any
// windowMs/tick ratio, so they cannot drift over long horizons.
func windowTicks(windowMs, tick float64) int64 {
	n := int64(math.Ceil(windowMs/tick - 0.5))
	if n < 0 {
		n = 0
	}
	return n
}

// snapshot drains the per-window accumulators into AppWindow observations.
// elapsedMs is the simulated time the window actually covered, the
// normaliser for offered rates and BE IPC. With no run mark live nothing
// reads a closed window's latencies again, so each latency buffer empties:
// an engine that is never marked (the ahqd daemon's) keeps at most one
// window of them.
func (e *Engine) snapshot(elapsedMs float64) []sched.AppWindow {
	marked := slices.Contains(e.marks, true)
	out := e.snapBuf[:0]
	for _, a := range e.apps {
		w := sched.AppWindow{Spec: e.specOf(a)}
		if a.class == workload.LC {
			st := metrics.TailStats(a.lat[a.winStart:], a.dropped)
			a.winStart, a.dropped = len(a.lat), 0
			if !marked {
				a.lat, a.winStart = a.lat[:0], 0
			}
			w.P95Ms, w.MeanMs = st.P95, st.Mean
			w.Completed, w.Dropped = st.Completed, st.Dropped
			w.QueueLen = a.pendingLen()
			w.OfferedQPS = float64(a.offered) / elapsedMs * 1000
			a.offered = 0
			// A starved application completes nothing; report the age of
			// its oldest waiting request as a latency lower bound so the
			// controller still sees the violation.
			if st.Completed == 0 {
				if age := a.oldestAgeMs(e.nowMs); !math.IsNaN(age) {
					w.P95Ms, w.MeanMs = age, age
				}
			}
		} else {
			work := a.workWin.Snapshot()
			w.IPC = a.cfg.BE.SoloIPC * work / (float64(a.threads()) * elapsedMs)
		}
		out = append(out, w) //ahqlint:allow hotpath amortized: snapBuf reuses its backing array across windows
	}
	e.snapBuf = out
	return out
}

// specOf builds the static AppSpec for telemetry.
func (e *Engine) specOf(a *appState) sched.AppSpec {
	s := sched.AppSpec{Name: a.name, Class: a.class, Threads: a.threads()}
	if a.cfg.LC != nil {
		s.QoSTargetMs = a.cfg.LC.QoSTargetMs
		s.IdealP95Ms = a.cfg.LC.IdealP95Ms
		s.MaxLoadQPS = a.cfg.LC.MaxLoadQPS
	} else {
		s.SoloIPC = a.cfg.BE.SoloIPC
	}
	return s
}

// AppSpecs returns the telemetry specs for all applications, LC first then
// BE, preserving configuration order within each class.
func (e *Engine) AppSpecs() []sched.AppSpec {
	var lc, be []sched.AppSpec
	for _, a := range e.apps {
		if a.class == workload.LC {
			lc = append(lc, e.specOf(a))
		} else {
			be = append(be, e.specOf(a))
		}
	}
	return append(lc, be...)
}

// MarkRun starts a run-level measurement at the current time and returns
// its mark; RunP95 and RunIPC then report over everything since it, until
// ReleaseRun. The open window's latencies belong to the mark: they are
// completions since it that the next RunWindow observation will report.
//
// Any number of marks may be live at once: the controller's RunHorizons
// cuts several measurement windows from one simulation. The latency buffer
// keeps completions from the earliest live mark on, so a mark taken while
// no other is live drops every closed window, exactly as a reset would.
func (e *Engine) MarkRun() int {
	e.trimRuns()
	m := 0
	for m < len(e.marks) && e.marks[m] {
		m++
	}
	if m == len(e.marks) {
		e.marks = append(e.marks, false)
	}
	e.marks[m] = true
	for _, a := range e.apps {
		if m == len(a.runs) {
			a.runs = append(a.runs, appRun{})
		}
		a.runs[m] = appRun{off: a.winStart}
	}
	return m
}

// ReleaseRun ends a mark; completions no live mark covers are dropped.
// Releasing a mark that is not live is a no-op.
func (e *Engine) ReleaseRun(mark int) {
	if mark < 0 || mark >= len(e.marks) || !e.marks[mark] {
		return
	}
	e.marks[mark] = false
	e.trimRuns()
}

// trimRuns slides each latency buffer down to the earliest live mark (the
// open window when none is live), rebasing the live marks' offsets. It is
// a no-op unless a window closed with no mark live or the earliest mark
// was released: otherwise the earliest live mark already sits at 0.
func (e *Engine) trimRuns() {
	for _, a := range e.apps {
		keep := a.winStart
		for m, live := range e.marks {
			if live && a.runs[m].off < keep {
				keep = a.runs[m].off
			}
		}
		if keep == 0 {
			continue
		}
		a.lat = a.lat[:copy(a.lat, a.lat[keep:])]
		a.winStart -= keep
		for m, live := range e.marks {
			if live {
				a.runs[m].off -= keep
			}
		}
	}
}

// RunP95 returns the exact p95 over every request completed since mark,
// which must be live (NaN if none completed). For a starved application with a non-empty
// backlog it returns the age of the oldest waiting request, the same lower
// bound the per-window telemetry reports. It selects on a copy, so it
// leaves every run as it was; the controller selects through
// RunP95Prefix.
func (e *Engine) RunP95(app string, mark int) float64 {
	if n := e.RunCompleted(app, mark); n > 0 {
		return e.RunP95Prefix(app, mark, n, false)
	}
	i, ok := e.byIdx[app]
	if !ok {
		return math.NaN()
	}
	return e.apps[i].oldestAgeMs(e.nowMs)
}

// RunCompleted reports how many requests app completed since mark, which
// must be live (0 for BE and unknown applications).
func (e *Engine) RunCompleted(app string, mark int) int {
	i, ok := e.byIdx[app]
	if !ok {
		return 0
	}
	a := e.apps[i]
	return len(a.lat) - a.runs[mark].off
}

// RunP95Prefix returns the exact p95 over the first n requests app
// completed since mark (NaN when n is 0): RunP95 as it read when
// RunCompleted was n. The controller records n at each measurement
// window's last epoch and selects after the run, so one simulation
// finishes many windows without a select inside its epoch loop.
//
// With inPlace, and no window open, the selection reorders those n
// latencies (never their multiset): the caller asserts that no later
// reader depends on their order, nor on the multiset of a run that
// partially overlaps them. Otherwise it selects on a copy, which keeps
// the open window's latencies in completion order (its mean keeps its
// summation order).
func (e *Engine) RunP95Prefix(app string, mark, n int, inPlace bool) float64 {
	i, ok := e.byIdx[app]
	if !ok || n <= 0 {
		return math.NaN()
	}
	a := e.apps[i]
	off := a.runs[mark].off
	run := a.lat[off : off+n]
	if inPlace && a.winStart == len(a.lat) {
		return metrics.PercentileInPlace(run, 0.95)
	}
	return metrics.Percentile(run, 0.95)
}

// Release returns the engine's per-application buffers (random sources,
// latency and request buffers) to a pool that later engines draw from, so
// a sweep that builds one engine per node does not re-allocate them. The
// engine must not be used after Release; call it once the last result has
// been read.
func (e *Engine) Release() {
	for _, a := range e.apps {
		appBufPool.Put(&appBufs{rng: a.rng, lat: a.lat[:0], queue: a.queue[:0]})
	}
	e.apps = nil
}

// RunIPC returns the average IPC since mark, which must be live (NaN
// before any time has elapsed; LC applications return NaN).
func (e *Engine) RunIPC(app string, mark int) float64 {
	i, ok := e.byIdx[app]
	if !ok || e.apps[i].class != workload.BE {
		return math.NaN()
	}
	a := e.apps[i]
	r := a.runs[mark]
	if r.ms <= 0 {
		return math.NaN()
	}
	return a.cfg.BE.SoloIPC * r.work / (float64(a.threads()) * r.ms)
}
