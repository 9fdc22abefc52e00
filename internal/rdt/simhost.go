package rdt

import (
	"ahq/internal/machine"
	"ahq/internal/sim"
)

// SimHost adapts the simulator to the Host interface, validating each
// allocation through the CLOS planner first so that anything the controller
// applies is also expressible as real CAT/MBA configuration.
type SimHost struct {
	engine *sim.Engine
}

// NewSimHost wraps an engine.
func NewSimHost(engine *sim.Engine) *SimHost { return &SimHost{engine: engine} }

// Spec implements Host.
func (h *SimHost) Spec() machine.Spec { return h.engine.Spec() }

// Apply implements Host: it first lays the allocation out as a CLOS plan
// (catching anything a real RDT host could not express) and then installs
// it into the simulator.
func (h *SimHost) Apply(a machine.Allocation) error {
	if _, err := BuildPlan(h.engine.Spec(), a); err != nil {
		return err
	}
	return h.engine.SetAllocation(a)
}

var _ Host = (*SimHost)(nil)
