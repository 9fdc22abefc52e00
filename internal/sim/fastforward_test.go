package sim

import (
	"math"
	"math/rand"
	"testing"

	"ahq/internal/machine"
	"ahq/internal/trace"
	"ahq/internal/workload"
)

// sameF64 reports bitwise sameness, treating NaN as equal to NaN.
func sameF64(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// buildRandomApps draws a random mix of the arrival shapes the event-driven
// clock has to reason about: closed-loop users (idle until think times
// expire), sparse open-loop loads with genuinely zero stretches, and
// best-effort batch work (no arrivals at all). Every shape must fast-forward
// exactly or not at all.
func buildRandomApps(gen *rand.Rand) []AppConfig {
	lcNames := []string{"xapian", "moses", "img-dnn"}
	beNames := []string{"stream", "fluidanimate", "streamcluster"}
	nApps := 1 + gen.Intn(3)
	apps := make([]AppConfig, 0, nApps)
	for i := 0; i < nApps; i++ {
		switch gen.Intn(3) {
		case 0: // closed loop: arrivals only when a user's think time lapses
			lc := workload.MustLC(lcNames[i%len(lcNames)])
			apps = append(apps, AppConfig{
				LC:              &lc,
				ClosedLoopUsers: 1 + gen.Intn(3),
				ThinkTimeMs:     20 + 60*gen.Float64(),
			})
		case 1: // sparse open loop: alternating idle and busy segments
			lc := workload.MustLC(lcNames[i%len(lcNames)])
			var steps trace.Steps
			at := 0.0
			for s := 0; s < 4; s++ {
				frac := 0.0
				if s%2 == 1 {
					frac = 0.1 + 0.3*gen.Float64()
				}
				steps = append(steps, trace.Step{StartMs: at, Frac: frac})
				at += 10 + 25*gen.Float64()
			}
			apps = append(apps, AppConfig{LC: &lc, Load: steps})
		default: // best effort: no arrival stream
			be := workload.MustBE(beNames[i])
			apps = append(apps, AppConfig{BE: &be})
		}
	}
	return apps
}

// TestSkipAheadMatchesNaiveOnRandomTraces is the tentpole's differential
// gate: over thousands of randomized idle/busy traces, the event-driven
// clock (RunWindow skipping provably eventless tick stretches) must produce
// bit-identical windows, request latencies and simulation time to the naive
// one-Step-per-tick march. Any divergence — a skipped RNG draw, a
// reordered float addition, an off-by-one event tick — shows up here.
func TestSkipAheadMatchesNaiveOnRandomTraces(t *testing.T) {
	gen := rand.New(rand.NewSource(0xFA57))
	spec := machine.DefaultSpec()
	for trial := 0; trial < 2000; trial++ {
		seed := gen.Int63()
		tick := []float64{0.5, 1, 2}[gen.Intn(3)]
		apps := buildRandomApps(gen)

		mk := func(disable bool) *Engine {
			e, err := New(Config{
				Spec:               spec,
				Seed:               seed,
				TickMs:             tick,
				Apps:               apps,
				DisableFastForward: disable,
			})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			return e
		}
		fast, naive := mk(false), mk(true)

		nWindows := 2 + gen.Intn(3)
		reallocAfter := -1
		if gen.Intn(2) == 0 {
			reallocAfter = gen.Intn(nWindows)
		}
		for w := 0; w < nWindows; w++ {
			windowMs := 30 + 60*gen.Float64()
			fw := fast.RunWindow(windowMs)
			nw := naive.RunWindow(windowMs)
			if len(fw) != len(nw) {
				t.Fatalf("trial %d window %d: app counts differ", trial, w)
			}
			for i := range fw {
				f, n := fw[i], nw[i]
				if !sameF64(f.P95Ms, n.P95Ms) || !sameF64(f.MeanMs, n.MeanMs) ||
					f.Completed != n.Completed || f.Dropped != n.Dropped ||
					f.QueueLen != n.QueueLen ||
					!sameF64(f.OfferedQPS, n.OfferedQPS) || !sameF64(f.IPC, n.IPC) {
					t.Fatalf("trial %d window %d app %d: skip-ahead window diverged\nfast:  %+v\nnaive: %+v",
						trial, w, i, f, n)
				}
			}
			if fast.NowMs() != naive.NowMs() {
				t.Fatalf("trial %d window %d: NowMs %v vs %v", trial, w, fast.NowMs(), naive.NowMs())
			}
			if w == reallocAfter {
				// A repartition invalidates the solve and opens warm-up,
				// during which skipping must stand down; flip the shared
				// policy so the allocation genuinely changes.
				alloc := machine.AllShared(spec, machine.LCPriority, fast.AppNames())
				if err := fast.SetAllocation(alloc); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if err := naive.SetAllocation(alloc); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
		}
		for i := range fast.apps {
			fa, na := fast.apps[i], naive.apps[i]
			if len(fa.lat) != len(na.lat) {
				t.Fatalf("trial %d app %d: %d vs %d completions", trial, i, len(fa.lat), len(na.lat))
			}
			for j := range fa.lat {
				if fa.lat[j] != na.lat[j] {
					t.Fatalf("trial %d app %d latency %d: %v vs %v", trial, i, j, fa.lat[j], na.lat[j])
				}
			}
		}
	}
}

// TestSkipAheadActuallySkips guards the optimisation itself: an all-idle
// closed-loop configuration must fast-forward most of its ticks (otherwise
// the differential test above would pass vacuously with the skip never
// firing).
func TestSkipAheadActuallySkips(t *testing.T) {
	lc := workload.MustLC("xapian")
	e, err := New(Config{
		Spec: machine.DefaultSpec(),
		Seed: 7,
		Apps: []AppConfig{{LC: &lc, ClosedLoopUsers: 2, ThinkTimeMs: 200}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for e.NowMs() < 5_000 {
		e.RunWindow(500)
	}
	if e.skippedTicks < e.tickCount/2 {
		t.Fatalf("skip-ahead barely fired: %d of %d ticks elided", e.skippedTicks, e.tickCount)
	}
}
