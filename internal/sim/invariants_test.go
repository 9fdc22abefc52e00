package sim

import (
	"math/rand"
	"testing"

	"ahq/internal/machine"
	"ahq/internal/trace"
	"ahq/internal/workload"
)

// randomAllocation builds a random but valid ARQ-shaped allocation over the
// default node for the standard four applications.
func randomAllocation(rng *rand.Rand) machine.Allocation {
	spec := machine.DefaultSpec()
	lc := []string{"xapian", "moses", "img-dnn"}
	// Random isolated slices, remainder shared.
	coresLeft, waysLeft, bwLeft := spec.Cores-1, spec.LLCWays-1, spec.MemBWUnits
	alloc := machine.Allocation{}
	for _, name := range lc {
		c := rng.Intn(min(3, coresLeft+1))
		w := rng.Intn(min(5, waysLeft+1))
		b := rng.Intn(min(3, bwLeft+1))
		coresLeft -= c
		waysLeft -= w
		bwLeft -= b
		alloc.Regions = append(alloc.Regions, machine.Region{
			Name: "iso:" + name, Kind: machine.Isolated,
			Cores: c, Ways: w, BWUnits: b, Apps: []string{name},
		})
	}
	policy := machine.FairShare
	if rng.Intn(2) == 1 {
		policy = machine.LCPriority
	}
	alloc.Regions = append(alloc.Regions, machine.Region{
		Name: "shared", Kind: machine.Shared, Policy: policy,
		Cores: coresLeft + 1, Ways: waysLeft + 1, BWUnits: bwLeft,
		Apps: []string{"img-dnn", "moses", "stream", "xapian"},
	})
	return alloc
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestTickInvariantsUnderRandomAllocations fuzzes the contention resolver:
// for random valid allocations and random loads, every tick must conserve
// cores (no application group uses more core time than exists), keep
// effective ways within the node, and keep slowdowns sane.
func TestTickInvariantsUnderRandomAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(20260705))
	for trial := 0; trial < 30; trial++ {
		x, m, i := workload.MustLC("xapian"), workload.MustLC("moses"), workload.MustLC("img-dnn")
		s := workload.MustBE("stream")
		e, err := New(Config{
			Spec: machine.DefaultSpec(),
			Seed: rng.Int63(),
			Apps: []AppConfig{
				{LC: &x, Load: trace.Constant(rng.Float64())},
				{LC: &m, Load: trace.Constant(rng.Float64())},
				{LC: &i, Load: trace.Constant(rng.Float64())},
				{BE: &s},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		alloc := randomAllocation(rng)
		if err := alloc.Validate(e.Spec(), e.AppNames()); err != nil {
			t.Fatalf("trial %d: generator produced invalid allocation: %v", trial, err)
		}
		if err := e.SetAllocation(alloc); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for tick := 0; tick < 2000; tick++ {
			e.Step()
			var coreShare, effWays float64
			for _, a := range e.apps {
				if a.totalCoreShare < -1e-9 {
					t.Fatalf("trial %d: negative core share for %s", trial, a.name)
				}
				coreShare += a.totalCoreShare
				effWays += a.effWays
				if a.slowdown < 0.5 {
					t.Fatalf("trial %d: slowdown %.3f < 0.5 for %s (faster than solo reference?)",
						trial, a.slowdown, a.name)
				}
				if a.slowdown > 1000 {
					t.Fatalf("trial %d: slowdown exploded (%.1f) for %s", trial, a.slowdown, a.name)
				}
			}
			if coreShare > float64(e.Spec().Cores)+1e-6 {
				t.Fatalf("trial %d tick %d: total core share %.3f exceeds %d cores",
					trial, tick, coreShare, e.Spec().Cores)
			}
			if effWays > float64(e.Spec().LLCWays)+1e-6 {
				t.Fatalf("trial %d tick %d: effective ways %.3f exceed %d",
					trial, tick, effWays, e.Spec().LLCWays)
			}
		}
		// Latencies must be positive and finite.
		for _, a := range e.apps {
			for _, l := range a.lat {
				if !(l > 0) || l > 1e7 {
					t.Fatalf("trial %d: bad latency %g for %s", trial, l, a.name)
				}
			}
		}
	}
}

// TestLatencyNeverNegative hammers the slot-based progress path with a
// tiny-service application (sub-tick requests), where mid-tick arrival
// accounting is most delicate.
func TestLatencyNeverNegative(t *testing.T) {
	app := workload.MustLC("masstree") // 0.45 ms mean service, sub-tick
	e, err := New(Config{
		Spec: machine.DefaultSpec(),
		Seed: 42,
		Apps: []AppConfig{{LC: &app, Load: trace.Constant(0.9)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for e.NowMs() < 10_000 {
		e.Step()
	}
	a := e.apps[0]
	if len(a.lat) == 0 {
		t.Fatal("no completions")
	}
	minLat := a.lat[0]
	for _, l := range a.lat {
		if l < minLat {
			minLat = l
		}
	}
	if minLat <= 0 {
		t.Fatalf("non-positive latency %g recorded", minLat)
	}
	// Sub-tick services must be able to complete faster than one tick —
	// the work-conserving slot model, not tick-quantised service.
	if minLat >= 1 {
		t.Errorf("fastest completion %.3f ms >= tick; slot model not work-conserving", minLat)
	}
}

// TestThroughputNotTickQuantised verifies a single thread can finish many
// sub-tick requests within one tick.
func TestThroughputNotTickQuantised(t *testing.T) {
	app := workload.MustLC("silo") // 0.5 ms mean service
	e, err := New(Config{
		Spec: machine.DefaultSpec(),
		Seed: 4,
		Apps: []AppConfig{{LC: &app, Load: trace.Constant(1.0)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for e.NowMs() < 2_000 {
		e.Step()
	}
	e.MarkRun()
	for e.NowMs() < 8_000 {
		e.Step()
	}
	// At 100% load = 0.85*threads/serviceMean, throughput per second is
	// maxLoad; with tick-quantised service it would cap at
	// threads/tick = 4000/s < maxLoad for silo (6800/s).
	gotQPS := float64(len(e.apps[0].lat)) / 6.0
	if gotQPS < app.MaxLoadQPS*0.9 {
		t.Errorf("throughput %.0f QPS, want ~%.0f (tick quantisation?)", gotQPS, app.MaxLoadQPS)
	}
}
