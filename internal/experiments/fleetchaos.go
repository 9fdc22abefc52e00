package experiments

import (
	"fmt"
	"os"
	"time"

	"ahq/internal/cluster"
	"ahq/internal/core"
	"ahq/internal/faults"
	"ahq/internal/machine"
	"ahq/internal/sched"
)

func init() {
	register(Descriptor{
		ID:    "ext-fleetchaos",
		Title: "Extension: fleet chaos — crash fractions vs failure-aware re-placement",
		Run:   runExtFleetChaos,
	})
}

// fleetChaosNodes sizes the chaos fleet: large enough that a percent-level
// crash fraction hits several nodes, quick enough for CI smoke runs.
func fleetChaosNodes(cfg RunConfig) int {
	if cfg.Quick {
		return 40
	}
	return 1000
}

// fleetChaosHorizons picks the controller horizon and the epoch the
// persistent crash wave lands on. The crash sits early in the measured
// window so most of the horizon exercises the failure (and the recovery),
// not the healthy prefix: quick runs 6 epochs (1 warm), full runs 12
// (2 warm), both at the standard 500 ms epoch.
func fleetChaosHorizons(cfg RunConfig) (warm, dur float64, crashEpoch int) {
	if cfg.Quick {
		return 500, 2_500, 2
	}
	return 1_000, 5_000, 4
}

// fleetChaosMixedPlan is the everything-at-once scenario: a restarting
// crash wave, a persistent capacity degrade and a telemetry blackout, all
// drawn on disjoint-by-chance victim sets from the run seed.
func fleetChaosMixedPlan(cfg RunConfig) string {
	if cfg.Quick {
		return "crash@2x2/nodes=5%,degrade@1+/nodes=10%,blackout@3x2/nodes=10%"
	}
	return "crash@4x4/nodes=5%,degrade@2+/nodes=10%,blackout@6x3/nodes=10%"
}

// fleetChaosCell is one measured cell of the chaos sweep.
type fleetChaosCell struct {
	label string // crash-fraction or scenario label
	mode  string // "-" (no faults), "none" (crash, no re-placement), "replace"
	run   *cluster.Result
}

// fleetChaosSweep runs the crash-fraction × re-placement grid plus the
// mixed scenario and returns the structured cells (the table rendering and
// the regression tests both consume them). Layout per fraction f ∈ {0, 1,
// 5, 10}%: a persistent crash wave `crash@E+/nodes=f%` under both
// supervisor modes; f = 0 is the fault-free baseline (a one-phase
// schedule under the same content-wise CRN seeds) and appears once.
func fleetChaosSweep(cfg RunConfig) ([]fleetChaosCell, error) {
	nodes := fleetChaosNodes(cfg)
	warm, dur, crashEpoch := fleetChaosHorizons(cfg)
	opts := core.Options{EpochMs: 500, WarmupMs: warm, DurationMs: dur}
	spec := machine.DefaultSpec()
	var nodeCache *cluster.NodeCache
	if !cfg.FleetNodeCacheOff {
		nodeCache = cluster.NewNodeCache()
	}

	apps := fleetPopulation(cfg.Seed, nodes)
	placement, err := cluster.Scored(apps, nodes, spec)
	if err != nil {
		return nil, fmt.Errorf("scored placement: %w", err)
	}
	// Canonical intra-node order also fixes the order in which the
	// supervisor evicts a crashed node's applications.
	placement = cluster.CanonicalizePlacement(placement)

	runCell := func(label, mode, planSpec string, replace bool) (fleetChaosCell, error) {
		start := time.Now() //ahqlint:allow detflow wall-clock timing goes to stderr only; stdout stays deterministic
		c := cluster.Config{
			Spec:           spec,
			Seed:           cfg.Seed,
			NewStrategy:    func(int) sched.Strategy { return arqFactory() },
			Placement:      placement,
			Parallel:       cfg.Parallel,
			NodeCache:      nodeCache,
			StrategyDigest: "arq:default",
		}
		if planSpec != "" {
			plan, err := faults.ParseFleet(planSpec)
			if err != nil {
				return fleetChaosCell{}, fmt.Errorf("%s: %w", label, err)
			}
			c.FleetPlan = plan
			c.ReplaceEvicted = replace
		}
		run, err := cluster.Run(c, opts)
		if err != nil {
			return fleetChaosCell{}, fmt.Errorf("%s/%s: %w", label, mode, err)
		}
		elapsed := time.Since(start).Round(time.Millisecond) //ahqlint:allow detflow wall-clock timing goes to stderr only; stdout stays deterministic
		fmt.Fprintf(os.Stderr, "(ext-fleetchaos %s %s: %v, %d failed nodes, %d evictions, %d node-cache hits)\n",
			label, mode, elapsed, run.Stats.FailedNodes, run.Stats.Evictions, run.Stats.NodeCacheHits)
		return fleetChaosCell{label: label, mode: mode, run: run}, nil
	}

	var cells []fleetChaosCell
	base, err := runCell("0%", "-", "", false)
	if err != nil {
		return nil, err
	}
	cells = append(cells, base)
	for _, frac := range []int{1, 5, 10} {
		planSpec := fmt.Sprintf("crash@%d+/nodes=%d%%", crashEpoch, frac)
		label := fmt.Sprintf("%d%%", frac)
		for _, mode := range []string{"none", "replace"} {
			cell, err := runCell(label, mode, planSpec, mode == "replace")
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell)
		}
	}
	for _, mode := range []string{"none", "replace"} {
		cell, err := runCell("mixed", mode, fleetChaosMixedPlan(cfg), mode == "replace")
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// runExtFleetChaos is the robustness reading of the fleet extension: E_S
// aggregation stays meaningful when nodes crash, degrade or go dark, and
// it cleanly ranks the supervisor's two answers to a crash — leave the
// victims' applications dead (every dead LC app-epoch is a violation at
// saturated latency) or evict and re-place them onto survivors through the
// interference scorer. Crash victims are drawn from the run seed, so the
// whole sweep — phase schedule, re-placement decisions, every number — is
// byte-identical across runs and -parallel levels (CI-enforced).
func runExtFleetChaos(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "ext-fleetchaos", Title: "Fleet chaos: crash fractions vs failure-aware re-placement"}
	nodes := fleetChaosNodes(cfg)
	cells, err := fleetChaosSweep(cfg)
	if err != nil {
		return nil, err
	}
	tab := Table{
		Caption: fmt.Sprintf("%d-node scored fleet under per-node ARQ; persistent crash waves, mixed = crash+degrade+blackout", nodes),
		Columns: []string{"faults", "re-place", "E_LC", "E_BE", "E_S", "yield", "viol rate", "failed", "evicted", "placed", "abandoned", "recovery"},
	}
	for _, c := range cells {
		recovery := "-"
		if c.run.Replacements > 0 {
			recovery = fmt.Sprintf("%.1f ep", c.run.MeanRecoveryEpochs)
		}
		tab.AddRow(c.label, c.mode,
			c.run.GlobalELC, c.run.GlobalEBE, c.run.GlobalES,
			fmtPct(c.run.GlobalYield), fmt.Sprintf("%.2f%%", 100*c.run.ViolationRate()),
			c.run.Stats.FailedNodes, c.run.Evictions, c.run.Replacements, c.run.Abandoned, recovery)
	}
	tab.Notes = append(tab.Notes,
		"faults rows are crash fractions (crash@E+/nodes=f%, victims drawn from the run seed); 0% is the fault-free legacy-engine baseline",
		"re-place none: victims' apps stay dead — each dead LC app-epoch counts as a violation at saturated latency",
		"re-place replace: supervisor evicts crash victims' apps and re-places them via the interference scorer (churn-, retry- and utilisation-bounded; DESIGN.md §12)",
		"recovery = mean epochs from eviction to successful re-placement",
		"evicted - placed - abandoned = orphans still pending when the horizon ends (the churn bound re-places at most 16 per epoch)",
		"dead windows keep the sample set complete, so E_S comparisons across rows are apples-to-apples")
	res.Tables = append(res.Tables, tab)
	return res, nil
}
