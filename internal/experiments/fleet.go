package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"ahq/internal/cluster"
	"ahq/internal/core"
	"ahq/internal/machine"
	"ahq/internal/sched"
	"ahq/internal/sim"
)

func init() {
	register(Descriptor{
		ID:    "ext-fleet",
		Title: "Extension: fleet-scale E_S — placement strategies from 100 to 5000 nodes",
		Run:   runExtFleet,
	})
}

// fleetSizes are the sweep points: large enough that placement quality is
// a fleet property, small enough that the sharded engine finishes on one
// box. Quick mode shrinks the fleet, not the methodology.
func fleetSizes(cfg RunConfig) []int {
	if cfg.Quick {
		return []int{20, 50}
	}
	return []int{100, 1000, 5000}
}

// fleetHorizons are deliberately shorter than the single-node sweeps:
// at 5000 nodes the statistic of interest is the cross-fleet aggregate,
// which converges over nodes rather than over simulated time.
func fleetHorizons(cfg RunConfig) (warm, dur float64) {
	if cfg.Quick {
		return 500, 1_500
	}
	return 1_000, 3_000
}

// fleetPopulation draws a synthetic datacenter workload: ~2.5 applications
// per node, ~70% latency-critical services from the Tailbench catalog at a
// small set of discrete loads, the rest best-effort batch. The discrete
// load grid is deliberate — real fleets run a handful of service templates
// at quantised autoscaler steps, which is exactly what makes cross-node
// solve sharing pay (identical mixes recur massively).
func fleetPopulation(seed int64, nodes int) []sim.AppConfig {
	rng := rand.New(rand.NewSource(seed))
	lcNames := []string{"xapian", "moses", "img-dnn", "silo", "masstree", "sphinx"}
	beNames := []string{"stream", "fluidanimate", "streamcluster"}
	loads := []float64{0.2, 0.35, 0.5, 0.7}
	count := nodes * 5 / 2
	apps := make([]sim.AppConfig, 0, count)
	for i := 0; i < count; i++ {
		if rng.Float64() < 0.7 {
			apps = append(apps, lcAt(lcNames[rng.Intn(len(lcNames))], loads[rng.Intn(len(loads))]))
		} else {
			apps = append(apps, beApp(beNames[rng.Intn(len(beNames))]))
		}
	}
	return apps
}

// runExtFleet is the datacenter-scale reading of the paper's thesis: E_S
// quantifies interference for a whole fleet, so it can rank placement
// strategies at 100, 1000 and 5000 nodes, not just schedulers on one box.
// Every fleet runs through the sharded cluster engine — nodes fan out over
// the worker pool — with per-node ARQ managing each box.
//
// The sweep is a screening comparison, so it runs under common random
// numbers: each node's seed derives from its (canonically ordered)
// application contents, not its index, which is the standard
// variance-reduction setup for comparing placements — two placements that
// put the same applications on a box see the identical box, and observed
// differences are placement differences, not seed noise. CRN is also what
// makes "simulate each unique node once per sweep" a theorem rather than a
// heuristic: identical contents are bit-identical simulations, grouped
// within a fleet by cluster.Run and across the whole sweep
// (placements and fleet sizes) by the sweep-scoped cluster.NodeCache,
// which replays completed node records by content-addressed key. Both
// layers are bit-exact by construction, so stdout is byte-identical with
// the node cache on or off and at every -parallel level (CI-enforced);
// wall-clock and cache traffic per row go to stderr.
func runExtFleet(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "ext-fleet", Title: "Fleet-scale placement comparison under per-node ARQ"}
	warm, dur := fleetHorizons(cfg)
	opts := core.Options{EpochMs: 500, WarmupMs: warm, DurationMs: dur}
	spec := machine.DefaultSpec()
	// One node-outcome cache for the whole sweep: node contents recur
	// across placements and fleet sizes, and replay is bit-exact.
	var nodeCache *cluster.NodeCache
	if !cfg.FleetNodeCacheOff {
		nodeCache = cluster.NewNodeCache()
	}

	strategies := []struct {
		label string
		place func(apps []sim.AppConfig, nodes int) ([][]sim.AppConfig, error)
	}{
		{"random", func(a []sim.AppConfig, n int) ([][]sim.AppConfig, error) { return cluster.Random(a, n, cfg.Seed+1) }},
		{"round-robin", cluster.RoundRobin},
		{"pack", func(a []sim.AppConfig, n int) ([][]sim.AppConfig, error) { return cluster.Pack(a, n, 8) }},
		{"balanced", cluster.Balanced},
		{"scored", func(a []sim.AppConfig, n int) ([][]sim.AppConfig, error) { return cluster.Scored(a, n, spec) }},
	}

	tab := Table{
		Caption: "synthetic fleet (~2.5 apps/node, 70% LC) under per-node ARQ, sharded engine",
		Columns: []string{"nodes", "apps", "placement", "E_LC", "E_BE", "E_S", "yield", "viol rate"},
	}
	for _, nodes := range fleetSizes(cfg) {
		apps := fleetPopulation(cfg.Seed, nodes)
		for _, s := range strategies {
			start := time.Now() //ahqlint:allow detflow wall-clock timing goes to stderr only; stdout stays deterministic
			placement, err := s.place(apps, nodes)
			if err != nil {
				return nil, fmt.Errorf("%s at %d nodes: %w", s.label, nodes, err)
			}
			// A placement assigns a *set* of applications to each node;
			// the order its internals appended them in is an artifact.
			// Under the default seed policy Run canonicalises intra-node
			// order and seeds each node from its contents, so equal
			// contents are equal simulations: grouped within the fleet and
			// replayed across the sweep by the node cache.
			run, err := cluster.Run(cluster.Config{
				Spec:           spec,
				Seed:           cfg.Seed,
				NewStrategy:    func(int) sched.Strategy { return arqFactory() },
				Placement:      placement,
				Parallel:       cfg.Parallel,
				NodeCache:      nodeCache,
				StrategyDigest: "arq:default",
			}, opts)
			if err != nil {
				return nil, fmt.Errorf("%s at %d nodes: %w", s.label, nodes, err)
			}
			tab.AddRow(nodes, len(apps), s.label,
				run.GlobalELC, run.GlobalEBE, run.GlobalES,
				fmtPct(run.GlobalYield), fmt.Sprintf("%.2f%%", 100*run.ViolationRate()))
			elapsed := time.Since(start).Round(time.Millisecond) //ahqlint:allow detflow wall-clock timing goes to stderr only; stdout stays deterministic
			fmt.Fprintf(os.Stderr, "(ext-fleet %d nodes %s: %v, %d/%d nodes simulated, %d node-cache hits)\n",
				nodes, s.label, elapsed, run.Stats.NodesSimulated, run.Stats.NodesRun,
				run.Stats.NodeCacheHits)
		}
	}
	tab.Notes = append(tab.Notes,
		"rows within a fleet size share one application population; only the placement differs",
		"common random numbers: node seeds derive from node contents, so equal contents are identical simulations across placements",
		"scored = interference-aware greedy (utilisation² + bandwidth² + LC/BE cross term); see DESIGN.md §10",
		"each unique node content simulates once per sweep (cluster.NodeCache, DESIGN.md §11); bit-exact, so the cache never moves a number")
	res.Tables = append(res.Tables, tab)
	return res, nil
}
