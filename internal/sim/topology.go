package sim

import (
	"fmt"
	"math"

	"ahq/internal/machine"
)

// allocTopology is the indexed form of the applied allocation. SetAllocation
// compiles it once per repartition so the per-tick resolvers never walk
// region membership lists or compare application-name strings: every lookup
// the tick loop needs — "what are app i's isolated resources", "who are the
// members of shared region g" — becomes a slice index.
//
// The compiled form mirrors the resolvers' access patterns exactly:
//
//   - byApp[i] caches app i's *first* isolated region's resources (the same
//     first-match rule as Allocation.IsolatedRegionOf) plus its static way
//     entitlement across all regions (the warm-up trigger in SetAllocation).
//   - shared lists the shared regions in allocation order, each with its
//     member app indices in engine configuration order — the iteration
//     order the resolvers used when they filtered e.apps by Region.Has,
//     preserved so every float accumulation happens in the identical order.
//
// It also holds the miss ratios that stay fixed for as long as the
// allocation does (isoMiss, evenMiss): the same function on the same
// argument, computed once instead of once per tick, so each reuse has the
// bits a fresh call would. A repartition compiles a new topology, which
// discards them with nothing to invalidate.
type allocTopology struct {
	byApp  []topoApp
	shared []topoShared
}

// topoApp is one application's isolated-resource view of the allocation.
type topoApp struct {
	// isoCores, isoWays and isoBWUnits are the resources of the app's
	// first isolated region; zero when it has none. hasIso pins the
	// first-match rule even for a resourceless first region.
	isoCores   int
	isoWays    float64
	isoBWUnits int
	hasIso     bool
	// entitledWays is the static way upper bound (isolated plus full
	// shared) summed over every region the app belongs to, the quantity
	// whose change re-triggers cache warm-up.
	entitledWays float64
	// sharedIdx indexes allocTopology.shared for the app's shared region,
	// or -1 when it belongs to none.
	sharedIdx int
	// isoMiss is MissRatio(isoWays): the app's miss ratio on a tick it
	// takes no shared ways.
	isoMiss float64
	// evenMiss[n] is MissRatio(isoWays + ways/n) for the app's shared
	// region of `ways` ways: its miss ratio in the first cache fixed-point
	// round of a tick with n active members, when every member holds an
	// even split. NaN until the first such tick fills it; nil when the app
	// shares no ways.
	evenMiss []float64
}

// topoShared is one shared region plus its member index list.
type topoShared struct {
	// region points into Engine.alloc.Regions; stable because the engine
	// owns a private clone of the applied allocation.
	region *machine.Region
	// members holds engine app indices in configuration order.
	members []int
}

// compileTopology indexes alloc against the engine's application set. It
// also enforces the one-shared-region-per-app rule, which previously lived
// in SetAllocation as a membership scan. alloc must already be validated
// and must be the engine-owned clone (the topology keeps pointers into it).
func (e *Engine) compileTopology(alloc *machine.Allocation) (allocTopology, error) {
	t := allocTopology{byApp: make([]topoApp, len(e.apps))}
	for i := range t.byApp {
		t.byApp[i].sharedIdx = -1
	}
	for gi := range alloc.Regions {
		g := &alloc.Regions[gi]
		if g.Kind == machine.Isolated {
			// Validate guarantees exactly one member.
			i := e.byIdx[g.Apps[0]]
			ta := &t.byApp[i]
			if !ta.hasIso {
				ta.hasIso = true
				ta.isoCores = g.Cores
				ta.isoWays = float64(g.Ways)
				ta.isoBWUnits = g.BWUnits
			}
			ta.entitledWays += float64(g.Ways)
			continue
		}
		si := len(t.shared)
		ts := topoShared{region: g, members: make([]int, 0, len(g.Apps))}
		for i, a := range e.apps {
			if !g.Has(a.name) {
				continue
			}
			if t.byApp[i].sharedIdx >= 0 {
				return allocTopology{}, fmt.Errorf("sim: app %q is in 2 shared regions, max 1", a.name)
			}
			t.byApp[i].sharedIdx = si
			t.byApp[i].entitledWays += float64(g.Ways)
			ts.members = append(ts.members, i)
		}
		if g.Ways > 0 {
			k := len(ts.members) + 1
			rows := make([]float64, len(ts.members)*k)
			for j := range rows {
				rows[j] = math.NaN()
			}
			for j, i := range ts.members {
				t.byApp[i].evenMiss = rows[j*k : (j+1)*k : (j+1)*k]
			}
		}
		t.shared = append(t.shared, ts)
	}
	for i, a := range e.apps {
		t.byApp[i].isoMiss = a.cache().MissRatio(t.byApp[i].isoWays)
	}
	return t, nil
}
