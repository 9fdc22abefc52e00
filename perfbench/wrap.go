package main

import (
	"sync"
	"time"

	"ahq/internal/cluster"
	"ahq/internal/core"
	"ahq/internal/machine"
	"ahq/internal/sched"
)

// Timing decorators around the layers' public interfaces (core.Engine and
// sched.Strategy) and the in-memory span recorder behind them. The
// benchmark sees the program only from outside: every span is recorded by
// these files around a call into a layer, never inside it.
//
// With tracing off a wrapped call costs at most one time.Now — the entry
// stamp the epoch-interval metrics are built from. With tracing on each
// wrapped call records a span (two clock reads and a lock).

// spanKind names a layer boundary.
type spanKind uint8

const (
	kCoreRun spanKind = iota
	kClusterRun
	kUnit
	kRunWindow
	kSetAllocation
	kInit
	kDecide
	kScored
	kCanonicalize
	kParseFleet
	nKinds
)

var kindNames = [nKinds]string{
	kCoreRun:       "core.Run",
	kClusterRun:    "cluster.Run",
	kUnit:          "cluster.unit",
	kRunWindow:     "sim.RunWindow",
	kSetAllocation: "sim.SetAllocation",
	kInit:          "sched.Init",
	kDecide:        "sched.Decide",
	kScored:        "cluster.Scored",
	kCanonicalize:  "cluster.CanonicalizePlacement",
	kParseFleet:    "faults.ParseFleet",
}

// span is one recorded call. Parent is the index of the enclosing span in
// the recorder (-1 at the root); Run is the operation the call belongs to.
type span struct {
	Kind       spanKind
	Run        int32
	Parent     int32
	Start, End int64 // ns since the recorder's origin
}

// recorder holds the spans of the traced passes. Operations run one at a
// time (a closed loop from one goroutine, fleets at Parallel: 1), so a
// single stack gives every span its parent; the mutex only orders the
// hand-offs between the fleet pool's worker goroutines.
type recorder struct {
	mu     sync.Mutex
	on     bool // tracing enabled for the current pass; flipped between passes only
	origin time.Time
	spans  []span
	stack  []int32
	run    int32
	unit   int32 // open cluster.unit span, or -1
}

func newRecorder() *recorder { return &recorder{origin: time.Now(), unit: -1} }

// beginAt opens a span that started at t; it returns -1 when tracing is off.
func (r *recorder) beginAt(k spanKind, t time.Time) int32 {
	if !r.on {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.push(k, t)
}

func (r *recorder) begin(k spanKind) int32 {
	if !r.on {
		return -1
	}
	return r.beginAt(k, time.Now())
}

func (r *recorder) push(k spanKind, t time.Time) int32 {
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{Kind: k, Run: r.run, Parent: parent, Start: int64(t.Sub(r.origin))})
	r.stack = append(r.stack, i)
	return i
}

// end closes span i (a no-op for -1) and returns its duration.
func (r *recorder) end(i int32) time.Duration {
	if i < 0 {
		return 0
	}
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.stack); r.stack[n-1] != i && r.stack[n-1] == r.unit {
		r.closeUnit() // cluster.Run ends with its last unit still open
	}
	s := &r.spans[i]
	s.End = now
	r.stack = r.stack[:len(r.stack)-1]
	if s.Parent >= 0 && s.Parent == r.unit {
		r.spans[r.unit].End = now
	}
	return time.Duration(s.End - s.Start)
}

// openUnit starts a cluster.unit span: one simulated fleet unit, seen from
// outside as its strategy instance's Init through its last Decide. The
// previous unit, if still open, closes at the end of its last call.
func (r *recorder) openUnit() {
	if !r.on {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closeUnit()
	r.unit = r.push(kUnit, time.Now())
}

func (r *recorder) closeUnit() {
	if r.unit < 0 {
		return
	}
	if n := len(r.stack); n > 0 && r.stack[n-1] == r.unit {
		r.stack = r.stack[:n-1]
	}
	if u := &r.spans[r.unit]; u.End == 0 {
		u.End = u.Start
	}
	r.unit = -1
}

// nextRun starts a new operation id for the spans that follow.
func (r *recorder) nextRun() { r.run++ }

// selfTimes returns, per span kind, the summed durations and the summed
// self times (duration minus the part its direct children cover).
func selfTimes(spans []span) (total, self [nKinds]time.Duration) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		d := s.End - s.Start
		total[s.Kind] += time.Duration(d)
		self[s.Kind] += time.Duration(d - child[i])
	}
	return total, self
}

// meter accumulates what the wrappers observe. Epoch intervals are kept
// on every pass, and the run loop drains them after each; the remaining
// counters only on traced passes.
type meter struct {
	rec    *recorder
	epochs []time.Duration

	requests       int64
	simMs          float64
	adjustments    int64
	decideDur      []time.Duration
	strategyTime   map[string]time.Duration
	memoHits       uint64
	solves         uint64
	solveStatsMiss int64
	coreEpochs     int64
	fleet          fleetCounters
}

// fleetCounters sums what cluster.Run reports about its own work.
type fleetCounters struct {
	cacheHits, failed, evictions, replacements, abandoned int64
}

// addFleet adds one fleet run's counters (traced passes only).
func (m *meter) addFleet(r *cluster.Result) {
	m.fleet.cacheHits += int64(r.Stats.NodeCacheHits)
	m.fleet.failed += int64(r.Stats.FailedNodes)
	m.fleet.evictions += int64(r.Evictions)
	m.fleet.replacements += int64(r.Replacements)
	m.fleet.abandoned += int64(r.Abandoned)
	m.memoHits += r.Stats.MemoHits
	m.solves += r.Stats.Solves
	m.coreEpochs += int64(r.MeasuredEpochs)
}

func newMeter() *meter {
	return &meter{rec: newRecorder(), strategyTime: map[string]time.Duration{}}
}

// solveStatser is the part of *sim.Engine's instrumentation the benchmark
// reads. It is declared here and reached by type assertion so that a change
// to the engine's signature shows as a missing counter, not a broken build.
type solveStatser interface {
	SolveStats() (hits, solves, sharedHits uint64)
}

// addSolveStats adds one finished engine's memo counters.
func (m *meter) addSolveStats(engine any) {
	if !m.rec.on {
		return
	}
	e, ok := engine.(solveStatser)
	if !ok {
		m.solveStatsMiss++
		return
	}
	h, s, _ := e.SolveStats()
	m.memoHits, m.solves = m.memoHits+h, m.solves+s
}

// timedEngine decorates the node a core.Run drives.
type timedEngine struct {
	core.Engine
	m    *meter
	last time.Time
}

func (m *meter) engine(e core.Engine) *timedEngine { return &timedEngine{Engine: e, m: m} }

// RunWindow is entered once per controller epoch, so the interval between
// consecutive entries is one full epoch of host time.
func (e *timedEngine) RunWindow(windowMs float64) []sched.AppWindow {
	now := time.Now()
	if !e.last.IsZero() {
		e.m.epochs = append(e.m.epochs, now.Sub(e.last))
	}
	e.last = now
	sp := e.m.rec.beginAt(kRunWindow, now)
	w := e.Engine.RunWindow(windowMs)
	if sp >= 0 {
		e.m.rec.end(sp)
		e.m.simMs += windowMs
		for i := range w {
			e.m.requests += int64(w[i].Completed + w[i].Dropped)
		}
	}
	return w
}

func (e *timedEngine) SetAllocation(a machine.Allocation) error {
	sp := e.m.rec.begin(kSetAllocation)
	err := e.Engine.SetAllocation(a)
	e.m.rec.end(sp)
	return err
}

// timedStrategy decorates a strategy, handed to core.Run directly or built
// through cluster.Config.NewStrategy. Inside a fleet the engines are out of
// reach, so fleet strategies (unit set) also stamp the epoch intervals, from
// consecutive Decide entries, and open one cluster.unit span per Init.
type timedStrategy struct {
	sched.Strategy
	m    *meter
	name string
	unit bool
	last time.Time
}

func (m *meter) strategy(s sched.Strategy, name string, unit bool) *timedStrategy {
	return &timedStrategy{Strategy: s, m: m, name: name, unit: unit}
}

func (s *timedStrategy) Init(spec machine.Spec, apps []sched.AppSpec) machine.Allocation {
	if !s.m.rec.on {
		return s.Strategy.Init(spec, apps)
	}
	if s.unit {
		s.m.rec.openUnit()
	}
	sp := s.m.rec.begin(kInit)
	a := s.Strategy.Init(spec, apps)
	s.m.rec.end(sp)
	return a
}

func (s *timedStrategy) Decide(t sched.Telemetry, cur machine.Allocation) machine.Allocation {
	var now time.Time
	if s.unit || s.m.rec.on {
		now = time.Now()
	}
	if s.unit {
		if !s.last.IsZero() {
			s.m.epochs = append(s.m.epochs, now.Sub(s.last))
		}
		s.last = now
	}
	sp := s.m.rec.beginAt(kDecide, now)
	next := s.Strategy.Decide(t, cur)
	if sp >= 0 {
		d := s.m.rec.end(sp)
		s.m.decideDur = append(s.m.decideDur, d)
		s.m.strategyTime[s.name] += d
		if !next.Equal(cur) {
			s.m.adjustments++
		}
	}
	return next
}
