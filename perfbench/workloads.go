package main

import (
	"fmt"
	"math/rand"

	"ahq/internal/cluster"
	"ahq/internal/core"
	"ahq/internal/experiments"
	"ahq/internal/faults"
	"ahq/internal/machine"
	"ahq/internal/sched"
	"ahq/internal/sched/arq"
	"ahq/internal/sim"
	"ahq/internal/trace"
	"ahq/internal/workload"
)

// operation is one core.Run or one cluster.Run followed by its output
// checks. It returns the digest of the simulated statistics and an error
// when the run failed or a check did not hold.
type operation struct {
	name string
	run  func() (uint64, error)
}

// benchWorkload builds its inputs from a seed at set-up and hands out one
// pass of operations at a time during the timed phase: pass(p) for the p-th
// pass. Pass p repeats the work of pass p mod cycle.
type benchWorkload struct {
	// lcApps are the catalog entries the workload uses; set-up calibrates
	// them (workload.calibrate_s).
	lcApps []string
	setup  func(seed int64, m *meter) (pass func(p int) ([]operation, error), err error)
	cycle  int
	// probeUnits is how many speed-probe units run after each operation:
	// about a tenth of the operation's host time.
	probeUnits int
}

// inputCycle is how many input sets dense-light and fleet-chaos cycle
// through, one per pass. How much time and memory their passes take
// depends on the seed: over eight seeds the mean fleet-chaos pass time
// varied by 4.4% (coefficient of variation), and dense-light's peak
// resident set by about 5% between seeds. The median over passes of
// several input sets averages much of that out. node-mix runs 50
// operations per pass and needs no cycle.
const inputCycle = 4

// cycleSeed is the seed of a run's k-th input set; the first is the run's
// seed itself.
func cycleSeed(seed int64, k int) int64 { return seed + int64(k)<<32 }

var workloads = map[string]benchWorkload{
	"node-mix":    {lcApps: []string{"xapian", "moses", "img-dnn"}, setup: setupNodeMix, cycle: 1, probeUnits: 8},
	"dense-light": {lcApps: []string{"xapian", "moses", "img-dnn", "silo"}, setup: setupDenseLight, cycle: inputCycle, probeUnits: 50},
	"fleet-chaos": {lcApps: []string{"xapian", "moses", "img-dnn", "silo", "masstree", "sphinx"}, setup: setupFleetChaos, cycle: inputCycle, probeUnits: 100},
}

// nodeHorizon is the paper's full horizon: 5 s warm-up, 20 s measured, at
// the standard 500 ms epoch.
var nodeHorizon = core.Options{EpochMs: 500, WarmupMs: 5_000, DurationMs: 20_000}

func lcAt(name string, load float64) sim.AppConfig {
	app := workload.MustLC(name)
	return sim.AppConfig{LC: &app, Load: trace.Constant(load)}
}

func beApp(name string) sim.AppConfig {
	app := workload.MustBE(name)
	return sim.AppConfig{BE: &app}
}

// nodeOp drives one fresh engine through core.Run under the wrappers.
func nodeOp(m *meter, name string, spec machine.Spec, apps []sim.AppConfig, strategy string, newStrategy func() sched.Strategy, seed int64) operation {
	epochs := int(nodeHorizon.DurationMs / nodeHorizon.EpochMs)
	return operation{name: name, run: func() (uint64, error) {
		eng, err := sim.New(sim.Config{Spec: spec, Seed: seed, Apps: apps})
		if err != nil {
			return 0, err
		}
		sp := m.rec.begin(kCoreRun)
		res, err := core.Run(m.engine(eng), m.strategy(newStrategy(), strategy, false), nodeHorizon)
		m.rec.end(sp)
		if err != nil {
			return 0, err
		}
		m.addSolveStats(eng)
		if m.rec.on {
			m.coreEpochs += int64(res.Epochs)
		}
		return digestCore(res), checkNode(res, epochs)
	}}
}

// setupNodeMix: the paper's 10-core node, the standard collocation
// (Xapian + Moses + Img-dnn + Stream) over the headline load grid (Xapian
// 10-90%, Moses/Img-dnn 20/40%) under the five evaluated strategies.
func setupNodeMix(seed int64, m *meter) (func(int) ([]operation, error), error) {
	rng := rand.New(rand.NewSource(seed))
	var ops []operation
	for _, f := range experiments.AllStrategies() {
		for _, fixed := range []float64{0.2, 0.4} {
			for _, x := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
				apps := []sim.AppConfig{lcAt("xapian", x), lcAt("moses", fixed), lcAt("img-dnn", fixed), beApp("stream")}
				s := rng.Int63()
				ops = append(ops, nodeOp(m, fmt.Sprintf("%s/xapian=%.1f/fixed=%.1f", f.Name, x, fixed),
					machine.DefaultSpec(), apps, f.Name, func() sched.Strategy { return f.New(s) }, s))
			}
		}
	}
	return func(int) ([]operation, error) { return ops, nil }, nil
}

// setupDenseLight: a 100-core / 200-way node with 12 LC and 4 BE
// applications at LC loads of 10/20/30% under ARQ. Pass p runs input set
// p mod inputCycle, whose engine seeds come from cycleSeed.
func setupDenseLight(seed int64, m *meter) (func(int) ([]operation, error), error) {
	sets := make([][]operation, inputCycle)
	for k := range sets {
		sets[k] = denseLightOps(cycleSeed(seed, k), m)
	}
	return func(p int) ([]operation, error) { return sets[p%inputCycle], nil }, nil
}

func denseLightOps(seed int64, m *meter) []operation {
	spec := machine.Spec{Cores: 100, LLCWays: 200, MemBWUnits: 100, MemBWGBps: 400}
	lcBase := []string{"xapian", "moses", "img-dnn", "silo"}
	beBase := []string{"stream", "fluidanimate", "streamcluster", "stream"}
	rng := rand.New(rand.NewSource(seed))
	var ops []operation
	for _, load := range []float64{0.1, 0.2, 0.3} {
		var apps []sim.AppConfig
		for i := 0; i < 12; i++ {
			a := lcAt(lcBase[i%len(lcBase)], load)
			a.LC.Name = fmt.Sprintf("%s-%d", a.LC.Name, i)
			apps = append(apps, a)
		}
		for i, name := range beBase {
			a := beApp(name)
			a.BE.Name = fmt.Sprintf("%s-%d", a.BE.Name, i)
			apps = append(apps, a)
		}
		ops = append(ops, nodeOp(m, fmt.Sprintf("arq/load=%.1f", load), spec, apps, "arq",
			func() sched.Strategy { return arq.Default() }, rng.Int63()))
	}
	return ops
}

// Fleet-chaos shape: the full-horizon ext-fleetchaos sweep.
const (
	fleetNodes      = 1000
	fleetCrashEpoch = 4
	fleetMixedPlan  = "crash@4x4/nodes=5%,degrade@2+/nodes=10%,blackout@6x3/nodes=10%"
)

var fleetHorizon = core.Options{EpochMs: 500, WarmupMs: 1_000, DurationMs: 5_000}

// fleetPopulation draws about 2.5 applications per node, 70% of them LC at
// one of four loads.
func fleetPopulation(seed int64, nodes int) []sim.AppConfig {
	rng := rand.New(rand.NewSource(seed))
	lcNames := []string{"xapian", "moses", "img-dnn", "silo", "masstree", "sphinx"}
	beNames := []string{"stream", "fluidanimate", "streamcluster"}
	loads := []float64{0.2, 0.35, 0.5, 0.7}
	apps := make([]sim.AppConfig, 0, nodes*5/2)
	for i := 0; i < nodes*5/2; i++ {
		if rng.Float64() < 0.7 {
			apps = append(apps, lcAt(lcNames[rng.Intn(len(lcNames))], loads[rng.Intn(len(loads))]))
		} else {
			apps = append(apps, beApp(beNames[rng.Intn(len(beNames))]))
		}
	}
	return apps
}

// setupFleetChaos: a generated 1000-node population placed by
// cluster.Scored, run under crash plans at 1/5/10% and the mixed
// crash+degrade+blackout plan, each with and without ReplaceEvicted, with
// one NodeCache spanning the sweep. Pass p runs fleet p mod inputCycle: it
// re-places that fleet's population and starts a fresh cache, so it
// repeats the work of the passes before it on the same fleet.
func setupFleetChaos(seed int64, m *meter) (func(int) ([]operation, error), error) {
	spec := machine.DefaultSpec()
	plans := []string{
		fmt.Sprintf("crash@%d+/nodes=1%%", fleetCrashEpoch),
		fmt.Sprintf("crash@%d+/nodes=5%%", fleetCrashEpoch),
		fmt.Sprintf("crash@%d+/nodes=10%%", fleetCrashEpoch),
		fleetMixedPlan,
	}
	o := fleetHorizon.WithDefaults()
	totalEpochs := int((o.WarmupMs + o.DurationMs) / o.EpochMs)
	measured := int(o.DurationMs / o.EpochMs)
	type fleet struct {
		seed    int64
		apps    []sim.AppConfig
		victims []fleetVictims // per plan
	}
	fleets := make([]fleet, inputCycle)
	for k := range fleets {
		f := fleet{seed: cycleSeed(seed, k)}
		f.apps = fleetPopulation(f.seed, fleetNodes)
		for _, p := range plans {
			v, err := resolveVictims(p, f.seed, fleetNodes, totalEpochs)
			if err != nil {
				return nil, fmt.Errorf("fleet plan %q: %w", p, err)
			}
			f.victims = append(f.victims, v)
		}
		fleets[k] = f
	}
	newStrategy := func(int) sched.Strategy { return m.strategy(arq.Default(), "arq", true) }

	return func(p int) ([]operation, error) {
		f := fleets[p%inputCycle]
		apps, seed, victims := f.apps, f.seed, f.victims
		sp := m.rec.begin(kScored)
		placement, err := cluster.Scored(apps, fleetNodes, spec)
		m.rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("scored placement: %w", err)
		}
		sp = m.rec.begin(kCanonicalize)
		placement = cluster.CanonicalizePlacement(placement)
		m.rec.end(sp)
		cache := cluster.NewNodeCache()

		var ops []operation
		for i, planSpec := range plans {
			for _, replace := range []bool{false, true} {
				ops = append(ops, operation{name: fmt.Sprintf("%s/replace=%v", planSpec, replace), run: func() (uint64, error) {
					sp := m.rec.begin(kParseFleet)
					plan, err := faults.ParseFleet(planSpec)
					m.rec.end(sp)
					if err != nil {
						return 0, err
					}
					cfg := cluster.Config{
						Spec:           spec,
						Seed:           seed,
						NewStrategy:    newStrategy,
						Placement:      placement,
						Parallel:       1,
						NodeCache:      cache,
						StrategyDigest: "arq:default",
						FleetPlan:      plan,
						ReplaceEvicted: replace,
					}
					sp = m.rec.begin(kClusterRun)
					res, err := cluster.Run(cfg, fleetHorizon)
					m.rec.end(sp)
					if err != nil {
						return 0, err
					}
					if m.rec.on {
						m.addFleet(res)
					}
					return digestCluster(res), checkFleet(res, victims[i], replace, measured)
				}})
			}
		}
		return ops, nil
	}, nil
}
