package core_test

// Window identity: RunHorizons cuts several measurement windows from one
// simulation, and each window's result must be bit-identical to an
// independent core.Run of that window on a fresh engine and strategy. The
// test lives outside package core so it can drive the faults wrappers
// (faults imports core).

import (
	"fmt"
	"math/rand"
	"testing"

	"ahq/internal/core"
	"ahq/internal/faults"
	"ahq/internal/machine"
	"ahq/internal/sched"
	"ahq/internal/sched/arq"
	"ahq/internal/sched/clite"
	"ahq/internal/sched/parties"
	"ahq/internal/sched/static"
	"ahq/internal/sim"
	"ahq/internal/trace"
	"ahq/internal/workload"
)

const horizonEpochMs = 500

// horizonApps is a three-application mix; with starved set, a fourth LC
// application whose requests take minutes completes nothing, so its
// run-level p95 falls back to the oldest waiting request's age.
func horizonApps(starved bool) []sim.AppConfig {
	x, m := workload.MustLC("xapian"), workload.MustLC("moses")
	b := workload.MustBE("stream")
	apps := []sim.AppConfig{
		{LC: &x, Load: trace.Constant(0.6)},
		{LC: &m, Load: trace.Constant(0.4)},
		{BE: &b},
	}
	if starved {
		s := workload.MustLC("silo")
		s.Name = "starved"
		s.ServiceMeanMs, s.IdealP95Ms, s.QoSTargetMs = 120_000, 200_000, 300_000
		s.MaxLoadQPS = 4
		apps = append(apps, sim.AppConfig{LC: &s, Load: trace.Constant(0.5)})
	}
	return apps
}

// horizonStrategies builds a fresh instance of each strategy under test.
var horizonStrategies = map[string]func() sched.Strategy{
	"unmanaged": func() sched.Strategy { return static.Unmanaged{} },
	"parties":   func() sched.Strategy { return parties.Default() },
	"clite": func() sched.Strategy {
		cfg := clite.DefaultConfig()
		cfg.Seed = 5
		return clite.New(cfg)
	},
	"arq": func() sched.Strategy { return arq.Default() },
}

// horizonNode builds a fresh engine and strategy, wrapped in the plan's
// injector when the plan is non-empty.
func horizonNode(t *testing.T, strategy string, starved bool, plan *faults.Plan) (core.Engine, sched.Strategy) {
	t.Helper()
	e, err := sim.New(sim.Config{Spec: machine.DefaultSpec(), Seed: 17, Apps: horizonApps(starved)})
	if err != nil {
		t.Fatal(err)
	}
	s := horizonStrategies[strategy]()
	if plan.Empty() {
		return e, s
	}
	in := faults.NewInjector(plan)
	return in.Engine(e), in.Strategy(s)
}

// randomHorizons draws n horizons sharing the epoch length, with warm-ups
// anywhere in [0, warm] epochs and ends no later than total epochs, in
// milliseconds that need not be epoch multiples (the controller rounds
// both up). A zero warm-up is spelled -1, since 0 means the default.
func randomHorizons(rng *rand.Rand, n, warm, total int, timeline bool) []core.Options {
	opts := make([]core.Options, n)
	for i := range opts {
		w := rng.Intn(warm*horizonEpochMs + 1)
		d := 1 + rng.Intn(total*horizonEpochMs-w)
		o := core.Options{EpochMs: horizonEpochMs, WarmupMs: float64(w), DurationMs: float64(d), RecordTimeline: timeline}
		if w == 0 {
			o.WarmupMs = -1
		}
		opts[i] = o
	}
	return opts
}

// resultText renders a result for a NaN-aware bit comparison: %#v prints
// every float in its shortest exact form (NaN as NaN, -0 as -0) and walks
// every slice, so equal texts mean equal fields.
func resultText(r *core.Result) string { return fmt.Sprintf("%#v", *r) }

func TestRunHorizonsMatchesIndependentRuns(t *testing.T) {
	const warm, total = 4, 14
	plans := map[string]string{
		"healthy": "",
		"faulted": "apply@2x4,drop@5,stale@7x2,nan@9,panic@3,panic@11",
	}
	rng := rand.New(rand.NewSource(23))
	for _, strategy := range []string{"unmanaged", "parties", "clite", "arq"} {
		for planName, spec := range plans {
			for _, starved := range []bool{false, true} {
				plan, err := faults.Parse(spec)
				if err != nil {
					t.Fatal(err)
				}
				timeline := rng.Intn(2) == 0
				opts := randomHorizons(rng, 2+rng.Intn(4), warm, total, timeline)
				// Pin the edge cases on top of the random draws: the whole
				// horizon, a window that ends inside its own warm-up, and
				// two windows that share a warm-up end.
				opts = append(opts,
					core.Options{EpochMs: horizonEpochMs, WarmupMs: warm * horizonEpochMs, DurationMs: (total - warm) * horizonEpochMs, RecordTimeline: timeline},
					core.Options{EpochMs: horizonEpochMs, WarmupMs: 700, DurationMs: 100, RecordTimeline: timeline},
					core.Options{EpochMs: horizonEpochMs, WarmupMs: 1000, DurationMs: 1000, RecordTimeline: timeline},
					core.Options{EpochMs: horizonEpochMs, WarmupMs: 1000, DurationMs: 3000, RecordTimeline: timeline},
				)
				name := fmt.Sprintf("%s/%s/starved=%v", strategy, planName, starved)
				e, s := horizonNode(t, strategy, starved, plan)
				got, err := core.RunHorizons(e, s, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sawIncident, sawStarved := false, false
				for i, o := range opts {
					e, s := horizonNode(t, strategy, starved, plan)
					want, err := core.Run(e, s, o)
					if err != nil {
						t.Fatalf("%s: window %d: %v", name, i, err)
					}
					if g, w := resultText(got[i]), resultText(want); g != w {
						t.Errorf("%s: window %d (%+v) differs from an independent Run:\n got %s\nwant %s", name, i, o, g, w)
					}
					sawIncident = sawIncident || len(want.Incidents) > 0
					for _, a := range want.Apps {
						if a.Spec.Name == "starved" && a.Completed == 0 && a.MeanP95Ms > 0 {
							sawStarved = true
						}
					}
				}
				if planName == "faulted" && !sawIncident {
					t.Errorf("%s: the fault plan raised no incident; the test exercised nothing", name)
				}
				if starved && !sawStarved {
					t.Errorf("%s: the starved application completed requests or reported no age", name)
				}
			}
		}
	}
}

func TestRunHorizonsRejectsMismatchedHorizons(t *testing.T) {
	base := core.Options{EpochMs: 500, WarmupMs: 1000, DurationMs: 2000}
	for name, other := range map[string]core.Options{
		"epoch":    {EpochMs: 250, WarmupMs: 1000, DurationMs: 2000},
		"ri":       {EpochMs: 500, WarmupMs: 1000, DurationMs: 2000, RI: 0.5},
		"timeline": {EpochMs: 500, WarmupMs: 1000, DurationMs: 2000, RecordTimeline: true},
	} {
		e, s := horizonNode(t, "arq", false, nil)
		if _, err := core.RunHorizons(e, s, []core.Options{base, other}); err == nil {
			t.Errorf("%s: horizons disagreeing on %s were accepted", name, name)
		}
	}
	// Defaults count as spelled: 0 and 500 ms are one epoch length.
	e, s := horizonNode(t, "arq", false, nil)
	if _, err := core.RunHorizons(e, s, []core.Options{base, {WarmupMs: 500, DurationMs: 1000}}); err != nil {
		t.Errorf("a defaulted epoch length was rejected: %v", err)
	}
	e, s = horizonNode(t, "arq", false, nil)
	if _, err := core.RunHorizons(e, s, nil); err == nil {
		t.Error("RunHorizons accepted no horizons")
	}
}
