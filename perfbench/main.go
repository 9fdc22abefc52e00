// Command perfbench is the repository benchmark. It runs one named workload
// in a closed loop from one goroutine for a fixed time and prints every
// metric by name, with its unit, as the last line of standard output.
//
//	perfbench -workload node-mix -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 a separate
// traced run reports the per-layer metrics, the sampled CPU shares and the
// tracing overhead, and writes its spans and CPU profile under -out. See
// README.md for the workloads, the metrics and the layer each one tracks.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"ahq/internal/workload"
)

// setupRuns is how many fresh processes set-up is timed in; setup_s is
// their median.
const setupRuns = 9

// setupProbeUnits is how many probe units run right before and right after
// each timed set-up process.
const setupProbeUnits = 50

// recordedSeeds: -record-digests records seeds 1..recordedSeeds.
const recordedSeeds = 10

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees (-trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"epoch_p50_us", "us"},
	{"epoch_p90_us", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers (-trace 1). Times and counts
// are per traced pass.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"workload.calibrate_s", "s"},
		{"sim.run_window_s", "s"},
		{"sim.requests", "count"},
		{"sim.ns_per_req", "ns/req"},
		{"sim.sim_ms", "ms"},
		{"sim.ns_per_sim_ms", "ns/ms"},
		{"sim.solves", "count"},
		{"sim.memo_hits", "count"},
		{"sim.memo_hit_ratio", "ratio"},
		{"sim.set_allocation_s", "s"},
		{"sim.set_allocation_calls", "count"},
		{"sched.init_s", "s"},
		{"sched.decide_s", "s"},
		{"sched.decide_calls", "count"},
		{"sched.decide_p90_us", "us"},
	}
	for _, s := range strategyNames {
		d = append(d, metricDef{"sched." + s + ".decide_s", "s"})
	}
	d = append(d, []metricDef{
		{"sched.adjustments", "count"},
		{"core.run_s", "s"},
		{"core.self_s", "s"},
		{"core.epochs", "count"},
		{"cluster.place_s", "s"},
		{"cluster.canonicalize_s", "s"},
		{"cluster.parse_s", "s"},
		{"cluster.run_s", "s"},
		{"cluster.self_s", "s"},
		{"cluster.units_simulated", "count"},
		{"cluster.node_cache_hits", "count"},
		{"cluster.cache_hit_ratio", "ratio"},
		{"cluster.unit_p50_ms", "ms"},
		{"cluster.failed_nodes", "count"},
		{"cluster.evictions", "count"},
		{"cluster.replacements", "count"},
		{"cluster.abandoned", "count"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.mallocs", "count"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},
	}...)
	for _, l := range cpuLayers {
		d = append(d, metricDef{l + ".cpu_share", "ratio"})
	}
	return append(d, []metricDef{
		{"cpu.samples", "count"},
		{"trace.overhead_s", "s"},
		{"machine.probe_ms", "ms"},
		{"trace.spans", "count"},
		{"epoch.samples", "count"},
		{"passes", "count"},
	}...)
}()

// strategyNames are the five evaluated strategies, in the paper's order.
var strategyNames = []string{"unmanaged", "lc-first", "parties", "clite", "arq"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// One CPU for the program, its garbage collector included: the probe
	// runs on the CPU the passes run on and cannot see a second one, whose
	// speed drifts independently on a shared machine.
	runtime.GOMAXPROCS(1)
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: node-mix, dense-light or fleet-chaos")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 30, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end")
	out := flag.String("out", ".bench_build/perfbench-out", "directory the traced run writes spans and profiles to")
	setupOnly := flag.Bool("setup-only", false, "run set-up and exit (used to time set-up in fresh processes)")
	record := flag.String("record-digests", "", "run one pass for each recorded seed and write their digests into this file")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *setupOnly {
		_, _, err := setUp(wl, *seed, newMeter())
		return err
	}
	if *record != "" {
		return recordDigests(*record, *name, wl)
	}

	res := result{Metrics: map[string]metric{}}
	vals := map[string]float64{}
	sp := newSpeedProbe()
	var setupScaled float64
	if *traced == 0 {
		s, err := timeSetup(*name, *seed, sp)
		if err != nil {
			return err
		}
		setupScaled = s
	}

	m := newMeter()
	calibrate, pass, err := setUp(wl, *seed, m)
	if err != nil {
		return err
	}
	refs, err := recordedDigests(*name, *seed, wl.cycle)
	if err != nil {
		return err
	}

	var prof bytes.Buffer
	if *traced == 1 {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	// Per pass: host time, its epoch p50 and p90, the probe's scale factor,
	// its peak resident set and whether it was traced.
	type passTimes struct {
		wall, p50, p90, scale, rss float64
		traced                     bool
	}
	var passes []passTimes
	samples := 0 // epoch intervals over all passes
	var mem0, mem1 runtime.MemStats
	var allocs [4]float64 // alloc MB, mallocs, GC cycles, GC pause ms over traced passes
	start := time.Now()
	for p := 0; ; p++ {
		elapsed := time.Since(start)
		if p > 0 && elapsed >= time.Duration(*seconds)*time.Second && (*traced == 0 || p >= 2*wl.cycle) {
			break
		}
		// The traced run alternates whole cycles of traced and untraced
		// passes, so both sides of trace.overhead_s do the same work.
		m.rec.on = *traced == 1 && p/wl.cycle%2 == 0
		// Every pass starts from a collected heap with its free memory
		// returned to the system, and measures its own peak resident set.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return err
		}
		if m.rec.on {
			runtime.ReadMemStats(&mem0)
		}
		t0 := time.Now()
		sp.reset()
		ref := &refs[p%wl.cycle]
		digests, att, failed, err := runPass(m, func() ([]operation, error) { return pass(p) }, *ref, sp, wl.probeUnits)
		// The pass's host time leaves out the probe that ran between its
		// operations.
		d := time.Since(t0).Seconds() - sp.elapsed.Seconds()
		if err != nil {
			return err
		}
		res.Attempted += att
		res.Failed += failed
		if *ref == nil {
			*ref = digests // later passes of the same work must reproduce it
		}
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		if m.rec.on {
			runtime.ReadMemStats(&mem1)
			allocs[0] += float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20)
			allocs[1] += float64(mem1.Mallocs - mem0.Mallocs)
			allocs[2] += float64(mem1.NumGC - mem0.NumGC)
			allocs[3] += float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
		}
		// Only the pass's epoch percentiles are kept, so the benchmark's
		// memory does not grow with the number of passes.
		epochs := durationsUs(m.epochs)
		samples += len(epochs)
		m.epochs = m.epochs[:0]
		passes = append(passes, passTimes{d, quantile(epochs, 0.5), quantile(epochs, 0.9), sp.scale(), rss, m.rec.on})
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: %.4f s host, probe %.1f us/unit\n", p, d, 1e6*probeNominal/sp.scale())
	}
	m.rec.on = false
	pprof.StopCPUProfile()
	res.Correct = res.Failed == 0

	// Per-pass figures, each scaled to nominal machine speed by the probe
	// that ran between the pass's operations, then the median over passes:
	// a burst of interference from outside the process moves a few passes,
	// not the median.
	var plain, tracedPasses, p50s, p90s, rss, hostPlain, scales []float64
	for _, pt := range passes {
		scales = append(scales, pt.scale)
		if pt.traced {
			tracedPasses = append(tracedPasses, pt.wall*pt.scale)
			continue
		}
		hostPlain = append(hostPlain, pt.wall)
		plain = append(plain, pt.wall*pt.scale)
		rss = append(rss, pt.rss)
		p50s = append(p50s, pt.p50*pt.scale)
		p90s = append(p90s, pt.p90*pt.scale)
	}

	if *traced == 0 {
		vals["setup_s"] = setupScaled
		vals["wall_s"] = median(plain)
		vals["epoch_p50_us"] = median(p50s)
		vals["epoch_p90_us"] = median(p90s)
		vals["peak_rss_mb"] = median(rss)
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d passes, %d epoch samples, median probe scale %.3f; host wall_s %.4f\n",
			*name, *seed, len(plain), samples, median(scales), median(hostPlain))
	} else {
		n := float64(len(tracedPasses))
		layerValues(vals, m, n)
		vals["workload.calibrate_s"] = calibrate
		vals["runtime.alloc_mb"] = allocs[0] / n
		vals["runtime.mallocs"] = allocs[1] / n
		vals["runtime.gc_cycles"] = allocs[2] / n
		vals["runtime.gc_pause_ms"] = allocs[3] / n
		vals["trace.overhead_s"] = median(tracedPasses) - median(plain)
		vals["machine.probe_ms"] = 1e3 * probeNominal / median(scales)
		vals["epoch.samples"] = float64(samples) / float64(len(passes))
		vals["passes"] = n
		shares, samples, err := cpuShares(prof.Bytes())
		if err != nil {
			return err
		}
		for l, v := range shares {
			vals[l+".cpu_share"] = v
		}
		vals["cpu.samples"] = float64(samples)
		if err := writeTrace(*out, *name, *seed, m.rec.spans, prof.Bytes()); err != nil {
			return err
		}
	}

	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setUp calibrates the workload's catalog entries and generates its
// inputs; it returns the calibration time.
func setUp(wl benchWorkload, seed int64, m *meter) (float64, func(int) ([]operation, error), error) {
	t0 := time.Now()
	for _, n := range wl.lcApps {
		if _, err := workload.LCByName(n); err != nil {
			return 0, nil, err
		}
	}
	calibrate := time.Since(t0).Seconds()
	pass, err := wl.setup(seed, m)
	return calibrate, pass, err
}

// timeSetup times set-up in fresh processes, from exec to the end of input
// generation, so that work done at package initialisation counts too. Each
// process's host time is scaled by the probe run right before and right
// after it; timeSetup returns the median.
func timeSetup(name string, seed int64, sp *speedProbe) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ds := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(exe, "-setup-only", "-workload", name, "-seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		sp.reset()
		sp.runProbe(setupProbeUnits)
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up process: %w", err)
		}
		d := time.Since(t0).Seconds()
		sp.runProbe(setupProbeUnits)
		ds = append(ds, d*sp.scale())
	}
	return median(ds), nil
}

// runPass runs one pass and checks every operation against ref (per
// operation digests, hex) when ref is known. After each operation it runs
// probeUnits units of the speed probe sp (none when sp is nil). It returns
// the pass's digests.
func runPass(m *meter, pass func() ([]operation, error), ref []string, sp *speedProbe, probeUnits int) (digests []string, attempted, failed int, err error) {
	m.rec.nextRun()
	ops, err := pass()
	if err != nil {
		return nil, 0, 0, err
	}
	if ref != nil && len(ref) != len(ops) {
		return nil, 0, 0, fmt.Errorf("%d recorded digests for %d operations", len(ref), len(ops))
	}
	for i, op := range ops {
		m.rec.nextRun()
		d, err := op.run()
		if sp != nil {
			sp.runProbe(probeUnits)
		}
		attempted++
		digests = append(digests, hex64(d))
		switch {
		case err != nil:
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", op.name, err)
		case ref != nil && ref[i] != digests[i]:
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: output digest %s, want %s\n", op.name, digests[i], ref[i])
		}
	}
	return digests, attempted, failed, nil
}

// layerValues derives the per-layer metrics from the spans and counters of
// n traced passes.
func layerValues(vals map[string]float64, m *meter, n float64) {
	total, self := selfTimes(m.rec.spans)
	sec := func(k spanKind) float64 { return total[k].Seconds() / n }
	per := func(v float64) float64 { return v / n }

	vals["sim.run_window_s"] = sec(kRunWindow)
	vals["sim.requests"] = per(float64(m.requests))
	vals["sim.ns_per_req"] = ratio(float64(total[kRunWindow].Nanoseconds()), float64(m.requests))
	vals["sim.sim_ms"] = per(m.simMs)
	vals["sim.ns_per_sim_ms"] = ratio(float64(total[kRunWindow].Nanoseconds()), m.simMs)
	if m.solveStatsMiss > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: engine solve counters missing for %d runs\n", m.solveStatsMiss)
	}
	vals["sim.solves"] = per(float64(m.solves))
	vals["sim.memo_hits"] = per(float64(m.memoHits))
	vals["sim.memo_hit_ratio"] = ratio(float64(m.memoHits), float64(m.memoHits+m.solves))
	vals["sim.set_allocation_s"] = sec(kSetAllocation)
	vals["sim.set_allocation_calls"] = per(float64(count(m.rec.spans, kSetAllocation)))

	vals["sched.init_s"] = sec(kInit)
	vals["sched.decide_s"] = sec(kDecide)
	vals["sched.decide_calls"] = per(float64(len(m.decideDur)))
	vals["sched.decide_p90_us"] = quantile(durationsUs(m.decideDur), 0.9)
	for _, s := range strategyNames {
		vals["sched."+s+".decide_s"] = m.strategyTime[s].Seconds() / n
	}
	vals["sched.adjustments"] = per(float64(m.adjustments))

	vals["core.run_s"] = sec(kCoreRun)
	vals["core.self_s"] = self[kCoreRun].Seconds() / n
	vals["core.epochs"] = per(float64(m.coreEpochs))

	var units []float64
	for _, s := range m.rec.spans {
		if s.Kind == kUnit {
			units = append(units, float64(s.End-s.Start)/1e6)
		}
	}
	vals["cluster.place_s"] = sec(kScored)
	vals["cluster.canonicalize_s"] = sec(kCanonicalize)
	vals["cluster.parse_s"] = sec(kParseFleet)
	vals["cluster.run_s"] = sec(kClusterRun)
	vals["cluster.self_s"] = self[kClusterRun].Seconds() / n
	vals["cluster.units_simulated"] = per(float64(count(m.rec.spans, kUnit)))
	vals["cluster.node_cache_hits"] = per(float64(m.fleet.cacheHits))
	vals["cluster.cache_hit_ratio"] = ratio(float64(m.fleet.cacheHits), float64(m.fleet.cacheHits)+float64(len(units)))
	vals["cluster.unit_p50_ms"] = quantile(units, 0.5)
	vals["cluster.failed_nodes"] = per(float64(m.fleet.failed))
	vals["cluster.evictions"] = per(float64(m.fleet.evictions))
	vals["cluster.replacements"] = per(float64(m.fleet.replacements))
	vals["cluster.abandoned"] = per(float64(m.fleet.abandoned))
	vals["trace.spans"] = per(float64(len(m.rec.spans)))
}

func count(spans []span, k spanKind) int {
	c := 0
	for _, s := range spans {
		if s.Kind == k {
			c++
		}
	}
	return c
}

// writeTrace writes the spans (one JSON object per line) and the CPU
// profile of a traced run.
func writeTrace(dir, name string, seed int64, spans []span, profile []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := os.WriteFile(base+".cpu.pprof", profile, 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"run":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			i, s.Parent, s.Run, kindNames[s.Kind], s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recordDigests runs the first cycle passes of the workload for each
// recorded seed and stores their per-operation digests in file, keeping
// other workloads' entries.
func recordDigests(file, name string, wl benchWorkload) error {
	all := map[string]map[string][]string{}
	if b, err := os.ReadFile(file); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	bySeed := map[string][]string{}
	for s := int64(1); s <= recordedSeeds; s++ {
		m := newMeter()
		_, pass, err := setUp(wl, s, m)
		if err != nil {
			return err
		}
		var seedDigests []string
		for p := 0; p < wl.cycle; p++ {
			digests, _, failed, err := runPass(m, func() ([]operation, error) { return pass(p) }, nil, nil, 0)
			if err != nil {
				return err
			}
			if failed > 0 {
				return fmt.Errorf("seed %d: %d operations failed their checks", s, failed)
			}
			seedDigests = append(seedDigests, digests...)
		}
		bySeed[strconv.FormatInt(s, 10)] = seedDigests
	}
	all[name] = bySeed
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(file, append(b, '\n'), 0o644)
}

// resetPeakRSS restarts the process's peak resident set (VmHWM) from its
// current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak resident set: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) since the last
// resetPeakRSS.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}

func durationsUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}

// quantile is the nearest-rank q-quantile; 0 for no samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the midpoint median; 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
