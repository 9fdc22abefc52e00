package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

// removedAPI lists the identifiers the ROADMAP schedules for deletion. The
// benchmark must compile against the API that stays, so that the PRs
// deleting these can never be blocked by it.
var removedAPI = map[string]string{
	"SharedSolves":        "sim.Config and cluster.Config field",
	"DisableFastForward":  "sim.Config field",
	"SolveCache":          "sim type",
	"NewSolveCache":       "sim constructor",
	"DisableSolveSharing": "cluster.Config field",
	"DedupIdenticalNodes": "cluster.Config field",
	"NodeSeed":            "cluster.Config field",
	"KeepResults":         "cluster.Config field",
	"SharedSolveHits":     "cluster.FleetStats field",
	// experiments.RunConfig carries the Solves and FleetNodeCacheOff
	// fields; the benchmark drives the layers directly and never builds one.
	"RunConfig":         "experiments.RunConfig",
	"FleetNodeCacheOff": "experiments.RunConfig field",
}

func TestNoRemovedAPI(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources found: %v", err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if what, bad := removedAPI[id.Name]; bad {
					t.Errorf("%s: names %s (%s), which is scheduled for deletion", fset.Position(id.Pos()), id.Name, what)
				}
			}
			return true
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step with
// what the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestSelfTimesAndUnits(t *testing.T) {
	r := newRecorder()
	r.on = true
	run := r.begin(kClusterRun)
	for u := 0; u < 2; u++ {
		r.openUnit()
		r.end(r.begin(kInit))
		r.end(r.begin(kDecide))
		time.Sleep(time.Millisecond) // unit tail (result aggregation) belongs to the cluster
	}
	r.end(run)

	var units int
	for i, s := range r.spans {
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", i, kindNames[s.Kind])
		}
		if s.Kind == kUnit {
			units++
			if s.Parent != run {
				t.Errorf("unit %d has parent %d, want the cluster.Run span", i, s.Parent)
			}
		}
		if s.Kind == kInit || s.Kind == kDecide {
			if p := r.spans[s.Parent]; p.Kind != kUnit || s.End > p.End {
				t.Errorf("%s span %d not inside its unit", kindNames[s.Kind], i)
			}
		}
	}
	if units != 2 {
		t.Fatalf("%d unit spans, want 2", units)
	}
	if len(r.stack) != 0 {
		t.Errorf("stack not empty after the run: %v", r.stack)
	}
	total, self := selfTimes(r.spans)
	if self[kClusterRun] < 2*time.Millisecond || self[kClusterRun] > total[kClusterRun] {
		t.Errorf("cluster self %v of total %v, want at least the two 1 ms tails", self[kClusterRun], total[kClusterRun])
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"math.Exp", "ahq/internal/sim.(*appState).sampleService", "ahq/internal/sim.(*appState).arrive"}, "sim.arrival"},
		{[]string{"ahq/internal/sim.(*appState).dispatchSmall", "ahq/internal/sim.(*Engine).progress"}, "sim.dispatch"},
		{[]string{"math.Exp", "ahq/internal/workload.CacheProfile.MissRatio", "ahq/internal/sim.(*Engine).missRatio"}, "sim.contention"},
		{[]string{"ahq/internal/sim.(*Engine).snapshot"}, "sim.other"},
		{[]string{"sort.Float64s", "ahq/internal/metrics.Percentile"}, "metrics"},
		{[]string{"ahq/internal/machine.Allocation.Equal", "ahq/internal/sched/arq.(*ARQ).Decide"}, "sched"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "ahq/internal/sim.(*Engine).snapshot"}, "runtime.gc"},
		{[]string{"ahq/internal/cluster.runChaos.func2", "ahq/internal/pool.Submit[...].gowrap1"}, "cluster"},
		{[]string{"runtime.futex"}, "other"},
		{[]string{"sort.Float64s", "main.(*speedProbe).unit", "main.(*speedProbe).runProbe", "main.timeSetup"}, "probe"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestCPUShares decodes a real profile of this process.
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		x += math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("no samples taken")
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if shares["bench"] == 0 {
		t.Errorf("the busy loop in package main was not charged to bench: %v", shares)
	}
}
