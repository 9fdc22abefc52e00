package core

import (
	"ahq/internal/machine"
	"ahq/internal/sched"
	"ahq/internal/sim"
)

// Engine is the node the controller drives: the simulator (*sim.Engine) in
// this reproduction, or a fault-injecting wrapper around it
// (internal/faults). On the paper's testbed it would be the resctrl-backed
// host. The controller only assumes the contract below; in particular
// RunWindow may return no windows (telemetry dropped) and NowMs may fail to
// advance (telemetry replayed stale), both of which the Controller
// degrades through instead of aborting.
type Engine interface {
	// Spec describes the controllable node.
	Spec() machine.Spec
	// AppSpecs returns the telemetry specs, LC first then BE.
	AppSpecs() []sched.AppSpec
	// Allocation returns (a copy of) the allocation currently in force.
	Allocation() machine.Allocation
	// SetAllocation validates and applies a new partitioning. A failed
	// apply must leave the previous allocation in force.
	SetAllocation(machine.Allocation) error
	// RunWindow advances one monitoring interval and returns each
	// application's observation for it. The returned slice may be backed
	// by an engine-owned buffer that the next call reuses.
	RunWindow(windowMs float64) []sched.AppWindow
	// NowMs is the timestamp of the most recent observation.
	NowMs() float64
	// MarkRun starts a run-level measurement now and returns its mark;
	// the controller takes one at each warm-up end. Several marks may be
	// live at once (RunHorizons measures several windows of one
	// simulation), and the node keeps the completions of the earliest.
	MarkRun() int
	// ReleaseRun ends a mark, letting the node drop what only it needed.
	ReleaseRun(mark int)
	// RunP95 and RunIPC report run-level aggregates since mark; for a
	// starved application that completed nothing, RunP95 is the age of
	// its oldest waiting request.
	RunP95(app string, mark int) float64
	RunIPC(app string, mark int) float64
	// RunCompleted counts the requests app completed since mark, and
	// RunP95Prefix is the exact p95 over the first n of them: RunP95 as
	// it read when RunCompleted was n. RunHorizons records the count at
	// each window's last epoch and selects every window after the run.
	// With inPlace the selection may reorder those n latencies; the
	// caller asserts no later selection depends on their order.
	RunCompleted(app string, mark int) int
	RunP95Prefix(app string, mark, n int, inPlace bool) float64
}

var _ Engine = (*sim.Engine)(nil)
