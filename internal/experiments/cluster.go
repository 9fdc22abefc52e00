package experiments

import (
	"fmt"

	"ahq/internal/cluster"
	"ahq/internal/core"
	"ahq/internal/machine"
	"ahq/internal/sched"
	"ahq/internal/sim"
)

func init() {
	register(Descriptor{
		ID:    "ext-cluster",
		Title: "Extension: datacenter-level E_S across two nodes, placement comparison",
		Run:   runExtCluster,
	})
}

// runExtCluster reads the paper's "interference within a datacenter"
// definition at fleet scale: all six Tailbench services plus two BE
// applications spread over two 10-core nodes, each node managed by its own
// ARQ controller, with E_S computed over every application in the fleet.
// Three placements are compared — packed (consolidation-first),
// round-robin, and demand-balanced — showing that the same metric that
// ranks schedulers also ranks placements.
func runExtCluster(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "ext-cluster", Title: "Two-node placement comparison"}
	apps := []sim.AppConfig{
		lcAt("xapian", 0.50),
		lcAt("moses", 0.20),
		lcAt("img-dnn", 0.30),
		lcAt("masstree", 0.20),
		lcAt("silo", 0.20),
		lcAt("sphinx", 0.20),
		beApp("fluidanimate"),
		beApp("stream"),
	}
	warm, dur := horizons(cfg)
	opts := core.Options{EpochMs: 500, WarmupMs: warm, DurationMs: dur}

	placements := []struct {
		label string
		build func() ([][]sim.AppConfig, error)
	}{
		{"packed", func() ([][]sim.AppConfig, error) { return cluster.Pack(apps, 2, 12) }},
		{"round-robin", func() ([][]sim.AppConfig, error) { return cluster.RoundRobin(apps, 2) }},
		{"balanced", func() ([][]sim.AppConfig, error) { return cluster.Balanced(apps, 2) }},
	}
	tab := Table{
		Caption: "6 LC + 2 BE over two nodes under per-node ARQ",
		Columns: []string{"placement", "node0 apps", "node1 apps", "global E_LC", "global E_BE", "global E_S", "global yield"},
	}
	type clusterOut struct {
		placement [][]sim.AppConfig
		run       *cluster.Result
	}
	pl := newPool(cfg)
	futs := make([]*future[clusterOut], len(placements))
	for i, p := range placements {
		futs[i] = submit(pl, func() (clusterOut, error) {
			placement, err := p.build()
			if err != nil {
				return clusterOut{}, err
			}
			run, err := cluster.Run(cluster.Config{
				Spec:        machine.DefaultSpec(),
				Seed:        cfg.Seed,
				NewStrategy: func(int) sched.Strategy { return arqFactory() },
				Placement:   placement,
				// Nodes run inline: the experiment pool already bounds
				// concurrency across the three placements.
				Parallel: 1,
			}, opts)
			if err != nil {
				return clusterOut{}, err
			}
			return clusterOut{placement: placement, run: run}, nil
		})
	}
	for i, p := range placements {
		out, err := futs[i].wait()
		if err != nil {
			return nil, fmt.Errorf("placement %s: %w", p.label, err)
		}
		run := out.run
		tab.AddRow(p.label, len(out.placement[0]), len(out.placement[1]),
			run.GlobalELC, run.GlobalEBE, run.GlobalES, fmtPct(run.GlobalYield))
	}
	tab.Notes = append(tab.Notes,
		"the same E_S that ranks schedulers ranks placements: spreading demand beats consolidation under contention")
	res.Tables = append(res.Tables, tab)
	return res, nil
}

// arqFactory builds a fresh ARQ instance (kept separate for readability).
func arqFactory() sched.Strategy {
	f, err := StrategyByName("arq")
	if err != nil {
		panic(err) // registered statically; cannot fail
	}
	return f.New(0)
}
