package machine

import (
	"fmt"
	"sort"
	"strings"
)

// RegionKind distinguishes the two region flavours of the ARQ model.
type RegionKind int

const (
	// Isolated regions hold resources dedicated to exactly one application.
	Isolated RegionKind = iota
	// Shared regions hold resources usable by every member application.
	Shared
)

// String returns "isolated" or "shared".
func (k RegionKind) String() string {
	if k == Shared {
		return "shared"
	}
	return "isolated"
}

// SharePolicy selects how core time is divided inside a shared region.
type SharePolicy int

const (
	// FairShare models Linux CFS: every runnable thread gets an equal
	// share of the region's cores regardless of application class.
	FairShare SharePolicy = iota
	// LCPriority models real-time priority (and the ARQ shared region):
	// latency-critical threads are served first; best-effort threads
	// consume only the leftover capacity.
	LCPriority
)

// String returns a human-readable policy name.
func (p SharePolicy) String() string {
	if p == LCPriority {
		return "lc-priority"
	}
	return "fair-share"
}

// Region is a set of resources plus the applications entitled to use them.
// An isolated region has exactly one member; a shared region may have many.
type Region struct {
	// Name identifies the region in snapshots and logs, e.g. "iso:xapian"
	// or "shared".
	Name string
	// Kind is Isolated or Shared.
	Kind RegionKind
	// Policy governs core sharing for Shared regions; ignored for
	// Isolated ones.
	Policy SharePolicy
	// Cores, Ways and BWUnits are the resources held by the region.
	Cores   int
	Ways    int
	BWUnits int
	// Apps lists the names of member applications.
	Apps []string
}

// Amount returns the region's holding of resource r.
func (g Region) Amount(r Resource) int {
	switch r {
	case Cores:
		return g.Cores
	case LLCWays:
		return g.Ways
	case MemBW:
		return g.BWUnits
	default:
		return 0
	}
}

// SetAmount sets the region's holding of resource r.
func (g *Region) SetAmount(r Resource, v int) {
	switch r {
	case Cores:
		g.Cores = v
	case LLCWays:
		g.Ways = v
	case MemBW:
		g.BWUnits = v
	}
}

// Has reports whether app is a member of the region.
func (g Region) Has(app string) bool {
	for _, a := range g.Apps {
		if a == app {
			return true
		}
	}
	return false
}

// Empty reports whether the region holds no resources at all.
func (g Region) Empty() bool {
	return g.Cores == 0 && g.Ways == 0 && g.BWUnits == 0
}

// Allocation is a complete partitioning of a node into regions. It is the
// value a scheduling strategy hands to the resource-control host every epoch.
type Allocation struct {
	Regions []Region
}

// Clone returns a deep copy, so strategies can mutate tentative allocations
// without aliasing the applied one.
func (a Allocation) Clone() Allocation {
	out := Allocation{Regions: make([]Region, len(a.Regions))}
	for i, g := range a.Regions {
		out.Regions[i] = g
		out.Regions[i].Apps = append([]string(nil), g.Apps...)
	}
	return out
}

// Region returns a pointer to the named region, or nil.
func (a *Allocation) Region(name string) *Region {
	for i := range a.Regions {
		if a.Regions[i].Name == name {
			return &a.Regions[i]
		}
	}
	return nil
}

// SharedRegion returns a pointer to the first shared region, or nil.
func (a *Allocation) SharedRegion() *Region {
	for i := range a.Regions {
		if a.Regions[i].Kind == Shared {
			return &a.Regions[i]
		}
	}
	return nil
}

// IsolatedRegionOf returns a pointer to the isolated region of app, or nil.
func (a *Allocation) IsolatedRegionOf(app string) *Region {
	for i := range a.Regions {
		if a.Regions[i].Kind == Isolated && a.Regions[i].Has(app) {
			return &a.Regions[i]
		}
	}
	return nil
}

// Used returns the total amount of resource r assigned across all regions.
func (a Allocation) Used(r Resource) int {
	total := 0
	for _, g := range a.Regions {
		total += g.Amount(r)
	}
	return total
}

// Validate checks the allocation against the node spec and the application
// set: no resource dimension may be overcommitted, isolated regions must
// have exactly one member, and every application must belong to at least one
// region that holds cores (otherwise it could never run).
func (a Allocation) Validate(spec Spec, apps []string) error {
	for r := Cores; r < Resource(NumResources); r++ {
		if used := a.Used(r); used > spec.Capacity(r) {
			return fmt.Errorf("%w: %d %s assigned, node has %d",
				ErrOverCommit, used, r, spec.Capacity(r))
		}
	}
	for _, g := range a.Regions {
		if g.Kind == Isolated && len(g.Apps) != 1 {
			return fmt.Errorf("machine: isolated region %q has %d members, want 1",
				g.Name, len(g.Apps))
		}
		for _, m := range g.Apps {
			if !contains(apps, m) {
				return fmt.Errorf("machine: region %q references unknown app %q", g.Name, m)
			}
		}
	}
	for _, app := range apps {
		hasCores := false
		for _, g := range a.Regions {
			if g.Has(app) && g.Cores > 0 {
				hasCores = true
				break
			}
		}
		if !hasCores {
			return fmt.Errorf("machine: app %q has no region with cores", app)
		}
	}
	return nil
}

// String renders the allocation as a compact single-line summary, e.g.
// "iso:xapian{c2 w5} shared{c8 w15 bw10: moses,img-dnn,stream}".
func (a Allocation) String() string {
	parts := make([]string, 0, len(a.Regions))
	for _, g := range a.Regions {
		members := ""
		if g.Kind == Shared {
			members = ": " + strings.Join(g.Apps, ",")
		}
		parts = append(parts, fmt.Sprintf("%s{c%d w%d bw%d%s}", g.Name, g.Cores, g.Ways, g.BWUnits, members))
	}
	return strings.Join(parts, " ")
}

// Equal reports whether two allocations assign identical resources and
// memberships (region order matters; strategies keep stable ordering).
func (a Allocation) Equal(b Allocation) bool {
	if len(a.Regions) != len(b.Regions) {
		return false
	}
	for i := range a.Regions {
		x, y := a.Regions[i], b.Regions[i]
		if x.Name != y.Name || x.Kind != y.Kind || x.Policy != y.Policy ||
			x.Cores != y.Cores || x.Ways != y.Ways || x.BWUnits != y.BWUnits ||
			len(x.Apps) != len(y.Apps) {
			return false
		}
		for j := range x.Apps {
			if x.Apps[j] != y.Apps[j] {
				return false
			}
		}
	}
	return true
}

// AllShared builds the Unmanaged-style allocation: one shared region holding
// the entire node, with the given policy and all applications as members.
func AllShared(spec Spec, policy SharePolicy, apps []string) Allocation {
	members := append([]string(nil), apps...)
	sort.Strings(members)
	return Allocation{Regions: []Region{{
		Name:    "shared",
		Kind:    Shared,
		Policy:  policy,
		Cores:   spec.Cores,
		Ways:    spec.LLCWays,
		BWUnits: spec.MemBWUnits,
		Apps:    members,
	}}}
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
