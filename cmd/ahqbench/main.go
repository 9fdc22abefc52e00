// Command ahqbench regenerates the paper's tables and figures on the
// simulated node.
//
// Usage:
//
//	ahqbench -list
//	ahqbench -run table2
//	ahqbench -run fig8 -seed 7
//	ahqbench -all
//	ahqbench -all -parallel 8
//
// Output is plain text; heatmap/timeline experiments additionally emit CSV
// rows suitable for plotting. Each experiment fans its independent
// simulation runs out over -parallel workers (NumCPU by default) and
// reassembles them in declaration order, so stdout is byte-identical at
// every parallelism level; timings are printed to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ahq/internal/experiments"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list experiment ids and exit")
		runID     = flag.String("run", "", "experiment id to run (see -list)")
		all       = flag.Bool("all", false, "run every experiment")
		seed      = flag.Int64("seed", 42, "simulation seed")
		quick     = flag.Bool("quick", false, "short horizons (smoke test)")
		csvDir    = flag.String("csv", "", "also write each table as CSV into this directory")
		parallel  = flag.Int("parallel", 0, "simulation runs to execute concurrently per experiment (0 = NumCPU, 1 = sequential); output is identical at any level")
		nodeCache = flag.Bool("fleet-node-cache", true, "share simulated node trajectories across the Runs of the ext-fleet and ext-fleetchaos sweeps (bit-exact; disable to benchmark the uncached path)")
	)
	flag.Parse()

	if *list {
		for _, d := range experiments.All() {
			fmt.Printf("%-10s %s\n", d.ID, d.Title)
		}
		return
	}

	cfg := experiments.RunConfig{Seed: *seed, Quick: *quick, Parallel: *parallel, FleetNodeCacheOff: !*nodeCache}
	var ids []string
	switch {
	case *all:
		for _, d := range experiments.All() {
			ids = append(ids, d.ID)
		}
	case *runID != "":
		ids = []string{*runID}
	default:
		fmt.Fprintln(os.Stderr, "ahqbench: need -run <id>, -all or -list")
		flag.Usage()
		os.Exit(2)
	}

	if err := runAll(os.Stdout, os.Stderr, ids, cfg, *csvDir); err != nil {
		fmt.Fprintf(os.Stderr, "ahqbench: %v\n", err)
		os.Exit(1)
	}
}

// runAll executes the experiments in order, printing each result (and CSV
// files when csvDir is set) to w. Per-experiment wall-clock timings go to
// timings so that w stays byte-identical across runs and -parallel levels.
func runAll(w, timings io.Writer, ids []string, cfg experiments.RunConfig, csvDir string) error {
	for _, id := range ids {
		d, ok := experiments.Lookup(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", id)
		}
		start := time.Now() //ahqlint:allow detflow wall-clock timing goes to stderr only; stdout stays deterministic
		res, err := d.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		res.Fprint(w)
		if csvDir != "" {
			files, err := res.SaveCSVs(csvDir)
			if err != nil {
				return fmt.Errorf("%s: csv: %w", id, err)
			}
			fmt.Fprintf(w, "(csv: %s)\n", strings.Join(files, ", "))
		}
		fmt.Fprintln(w)
		//ahqlint:allow detflow wall-clock timing goes to stderr only; stdout stays deterministic
		fmt.Fprintf(timings, "(%s finished in %v)\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
