// Package rdt renders a region-based allocation as Intel RDT
// configuration: CAT classes of service with contiguous way bitmasks, MBA
// throttling percentages, and taskset-style core lists. The controller
// enforces an allocation through core.Engine.SetAllocation — the simulator
// in this reproduction — and BuildPlan shows how the same allocation would
// be laid out on the paper's testbed, where it would go to resctrl (the
// ahqd daemon serves it at /v1/allocation).
package rdt

import (
	"fmt"
	"strings"

	"ahq/internal/machine"
)

// CLOS is one class of service in a CAT/MBA plan: the concrete hardware
// configuration for one region.
type CLOS struct {
	// ID is the class index (CLOS0, CLOS1, ... as in resctrl groups).
	ID int
	// Region is the region this class enforces.
	Region string
	// Cores lists the core IDs assigned to the class, ascending.
	Cores []int
	// WayMask is the CAT capacity bitmask; Intel CAT requires the set
	// bits to be contiguous.
	WayMask uint64
	// MBAPercent is the memory-bandwidth throttle (10-100 in steps of 10).
	MBAPercent int
	// Apps lists the member applications (whose tasks join the class).
	Apps []string
}

// MaskString renders the way mask in resctrl hex form.
func (c CLOS) MaskString() string { return fmt.Sprintf("%x", c.WayMask) }

// CoreList renders the cores in taskset list form, e.g. "0-2,5".
func (c CLOS) CoreList() string {
	if len(c.Cores) == 0 {
		return ""
	}
	var parts []string
	start, prev := c.Cores[0], c.Cores[0]
	flush := func() {
		if start == prev {
			parts = append(parts, fmt.Sprint(start))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d", start, prev))
		}
	}
	for _, c := range c.Cores[1:] {
		if c == prev+1 {
			prev = c
			continue
		}
		flush()
		start, prev = c, c
	}
	flush()
	return strings.Join(parts, ",")
}

// Plan is a complete hardware configuration for one allocation.
type Plan struct {
	Classes []CLOS
}

// BuildPlan lays out an allocation onto concrete hardware resources:
// regions receive disjoint, ascending core ID ranges and disjoint,
// contiguous way masks (low bits first), in region order. Empty regions
// are skipped. ARQ-style membership (an application in both an isolated
// and a shared region) is expressed in resctrl by the union mask; the plan
// records per-region classes and the per-application effective mask can be
// obtained with AppMask.
func BuildPlan(spec machine.Spec, a machine.Allocation) (*Plan, error) {
	if err := a.Validate(spec, appsOf(a)); err != nil {
		return nil, err
	}
	plan := &Plan{}
	nextCore, nextWay := 0, 0
	id := 0
	for _, g := range a.Regions {
		if g.Empty() {
			continue
		}
		cl := CLOS{ID: id, Region: g.Name, Apps: append([]string(nil), g.Apps...)}
		for i := 0; i < g.Cores; i++ {
			cl.Cores = append(cl.Cores, nextCore)
			nextCore++
		}
		if g.Ways > 0 {
			cl.WayMask = ((uint64(1) << g.Ways) - 1) << nextWay
			nextWay += g.Ways
		}
		if spec.MemBWUnits > 0 {
			cl.MBAPercent = 100 * g.BWUnits / spec.MemBWUnits
			if cl.MBAPercent == 0 && g.BWUnits > 0 {
				cl.MBAPercent = 10
			}
		}
		plan.Classes = append(plan.Classes, cl)
		id++
	}
	return plan, nil
}

// String renders the plan like a resctrl schemata dump.
func (p *Plan) String() string {
	var b strings.Builder
	for _, cl := range p.Classes {
		fmt.Fprintf(&b, "CLOS%d %-16s cores=%-8s L3=%s MBA=%d%% apps=%s\n",
			cl.ID, cl.Region, cl.CoreList(), cl.MaskString(), cl.MBAPercent,
			strings.Join(cl.Apps, ","))
	}
	return b.String()
}

// ContiguousMask reports whether a way mask satisfies CAT's contiguity
// requirement.
//
//ahqlint:allow unused the predicate TestPlanMasksAlwaysContiguousAndDisjoint checks every plan against
func ContiguousMask(mask uint64) bool {
	if mask == 0 {
		return true
	}
	for mask&1 == 0 {
		mask >>= 1
	}
	return mask&(mask+1) == 0
}

func appsOf(a machine.Allocation) []string {
	seen := map[string]bool{}
	var out []string
	for _, g := range a.Regions {
		for _, app := range g.Apps {
			if !seen[app] {
				seen[app] = true
				out = append(out, app)
			}
		}
	}
	return out
}
