package faults

import (
	"fmt"
	"math"

	"ahq/internal/core"
	"ahq/internal/machine"
	"ahq/internal/rdt"
	"ahq/internal/sched"
	"ahq/internal/workload"
)

// Stats counts the faults an Injector actually injected (a planned event is
// only counted when something was there to fail — e.g. a StrategyPanic
// epoch fires once per Decide call, and a TelemetryStale epoch before any
// healthy window has nothing to replay and injects nothing).
type Stats struct {
	ApplyFailures     int
	TelemetryDrops    int
	TelemetryStales   int
	MetricCorruptions int
	StrategyPanics    int
}

// Total sums the injected fault counts.
func (s Stats) Total() int {
	return s.ApplyFailures + s.TelemetryDrops + s.TelemetryStales +
		s.MetricCorruptions + s.StrategyPanics
}

// Injector owns one fault plan and hands out the wrappers that enact it.
// One injector is meant to wrap the pieces of one run (engine + strategy,
// or host); its Stats then account for every fault that run absorbed. Not
// safe for concurrent use, matching the engine it wraps.
type Injector struct {
	plan  *Plan
	stats Stats
}

// NewInjector returns an injector for the plan (nil means no faults).
func NewInjector(plan *Plan) *Injector {
	if plan == nil {
		plan = &Plan{}
	}
	return &Injector{plan: plan}
}

// Stats returns the faults injected so far.
func (in *Injector) Stats() Stats { return in.stats }

// Engine wraps a core.Engine with the plan's telemetry and enforcement
// faults. Controller epochs are counted by RunWindow calls; the initial
// allocation a controller applies before its first window is never faulted
// (the daemon comes up healthy, then the actuator degrades mid-run). With
// an empty plan every method is a verbatim pass-through.
type Engine struct {
	inner core.Engine
	in    *Injector
	// epoch counts completed RunWindow calls; the window that call n
	// delivers (and the applies that follow it) belong to epoch n.
	epoch    int
	prev     []sched.AppWindow
	prevTime float64
	havePrev bool
	// staleNow overrides NowMs with prevTime while the current epoch's
	// window is a stale replay.
	staleNow bool
}

// Engine wraps an engine with this injector's plan.
func (in *Injector) Engine(inner core.Engine) *Engine {
	return &Engine{inner: inner, in: in}
}

// Spec implements core.Engine.
func (e *Engine) Spec() machine.Spec { return e.inner.Spec() }

// AppSpecs implements core.Engine.
func (e *Engine) AppSpecs() []sched.AppSpec { return e.inner.AppSpecs() }

// Allocation implements core.Engine.
func (e *Engine) Allocation() machine.Allocation { return e.inner.Allocation() }

// MarkRun implements core.Engine.
func (e *Engine) MarkRun() int { return e.inner.MarkRun() }

// ReleaseRun implements core.Engine.
func (e *Engine) ReleaseRun(mark int) { e.inner.ReleaseRun(mark) }

// RunP95 implements core.Engine.
func (e *Engine) RunP95(app string, mark int) float64 { return e.inner.RunP95(app, mark) }

// RunCompleted implements core.Engine.
func (e *Engine) RunCompleted(app string, mark int) int { return e.inner.RunCompleted(app, mark) }

// RunP95Prefix implements core.Engine.
func (e *Engine) RunP95Prefix(app string, mark, n int, inPlace bool) float64 {
	return e.inner.RunP95Prefix(app, mark, n, inPlace)
}

// RunIPC implements core.Engine.
func (e *Engine) RunIPC(app string, mark int) float64 { return e.inner.RunIPC(app, mark) }

// NowMs implements core.Engine; during a stale-replay epoch it reports the
// replayed snapshot's timestamp, which is how the controller detects it.
func (e *Engine) NowMs() float64 {
	if e.staleNow {
		return e.prevTime
	}
	return e.inner.NowMs()
}

// RunWindow implements core.Engine: the node always advances, but the
// delivered observation may be dropped, replayed stale, or NaN-corrupted.
func (e *Engine) RunWindow(windowMs float64) []sched.AppWindow {
	epoch := e.epoch
	e.epoch++
	e.staleNow = false
	win := e.inner.RunWindow(windowMs)
	if !e.in.plan.Empty() {
		switch {
		case e.in.plan.ActiveAt(epoch, TelemetryDrop):
			e.in.stats.TelemetryDrops++
			return nil
		case e.in.plan.ActiveAt(epoch, TelemetryStale) && e.havePrev:
			e.in.stats.TelemetryStales++
			e.staleNow = true
			return append([]sched.AppWindow(nil), e.prev...)
		case e.in.plan.ActiveAt(epoch, MetricNaN):
			e.in.stats.MetricCorruptions++
			out := append([]sched.AppWindow(nil), win...)
			for i := range out {
				if out[i].Spec.Class == workload.LC {
					out[i].P95Ms = math.NaN()
					out[i].MeanMs = math.NaN()
				} else {
					out[i].IPC = math.NaN()
				}
			}
			return out
		}
		// Healthy delivery: remember it for a later stale replay.
		e.prev = append(e.prev[:0], win...)
		e.prevTime = e.inner.NowMs()
		e.havePrev = true
	}
	return win
}

// SetAllocation implements core.Engine, failing at the plan's ApplyFail
// epochs. The failed apply leaves the inner engine untouched.
func (e *Engine) SetAllocation(a machine.Allocation) error {
	if epoch := e.epoch - 1; epoch >= 0 && e.in.plan.ActiveAt(epoch, ApplyFail) {
		e.in.stats.ApplyFailures++
		return fmt.Errorf("faults: injected apply failure at epoch %d", epoch)
	}
	return e.inner.SetAllocation(a)
}

var _ core.Engine = (*Engine)(nil)

// Strategy wraps a sched.Strategy, panicking inside Decide at the plan's
// StrategyPanic epochs to exercise the controller's recover path. Init and
// healthy epochs pass through untouched.
type Strategy struct {
	inner sched.Strategy
	in    *Injector
}

// Strategy wraps a strategy with this injector's plan.
func (in *Injector) Strategy(inner sched.Strategy) *Strategy {
	return &Strategy{inner: inner, in: in}
}

// Name implements sched.Strategy.
func (s *Strategy) Name() string { return s.inner.Name() }

// Init implements sched.Strategy.
func (s *Strategy) Init(spec machine.Spec, apps []sched.AppSpec) machine.Allocation {
	return s.inner.Init(spec, apps)
}

// Decide implements sched.Strategy.
func (s *Strategy) Decide(t sched.Telemetry, current machine.Allocation) machine.Allocation {
	if s.in.plan.ActiveAt(t.Epoch, StrategyPanic) {
		s.in.stats.StrategyPanics++
		panic(fmt.Sprintf("faults: injected strategy panic at epoch %d", t.Epoch))
	}
	return s.inner.Decide(t, current)
}

var _ sched.Strategy = (*Strategy)(nil)

// Host wraps an rdt.Host with epoch-indexed Apply failures, for callers
// that drive the host directly instead of through core.Run (the ahqd
// daemon). The caller advances the epoch once per monitoring interval.
type Host struct {
	inner rdt.Host
	in    *Injector
	epoch int
}

// Host wraps a host with this injector's plan.
func (in *Injector) Host(inner rdt.Host) *Host {
	return &Host{inner: inner, in: in}
}

// SetEpoch positions the host at a controller epoch.
func (h *Host) SetEpoch(epoch int) { h.epoch = epoch }

// Spec implements rdt.Host.
func (h *Host) Spec() machine.Spec { return h.inner.Spec() }

// Apply implements rdt.Host, failing at the plan's ApplyFail epochs.
func (h *Host) Apply(a machine.Allocation) error {
	if h.in.plan.ActiveAt(h.epoch, ApplyFail) {
		h.in.stats.ApplyFailures++
		return fmt.Errorf("faults: injected apply failure at epoch %d", h.epoch)
	}
	return h.inner.Apply(a)
}

var _ rdt.Host = (*Host)(nil)
