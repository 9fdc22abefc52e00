package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"ahq/internal/faults"
	"ahq/internal/machine"
	"ahq/internal/sched"
	"ahq/internal/workload"
)

func TestParseMix(t *testing.T) {
	apps, loads, err := parseMix("xapian:0.5,moses:0.2+stream,fluidanimate")
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 4 {
		t.Fatalf("got %d apps", len(apps))
	}
	if apps[0].LC == nil || apps[0].LC.Name != "xapian" {
		t.Errorf("first app = %+v", apps[0])
	}
	if apps[2].BE == nil || apps[2].BE.Name != "stream" {
		t.Errorf("third app = %+v", apps[2])
	}
	if loads["xapian"].At(0) != 0.5 || loads["moses"].At(0) != 0.2 {
		t.Error("loads not wired")
	}
}

func TestParseMixErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"xapian",           // missing load
		"xapian:2.0",       // load out of range
		"ghost:0.5",        // unknown LC
		"xapian:0.5+ghost", // unknown BE
	} {
		if _, _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

func TestParseMixTraceReplay(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/load.csv"
	if err := os.WriteFile(path, []byte("time_s,load\n0,0.1\n60,0.8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	apps, loads, err := parseMix("xapian:@" + path + "+stream")
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 2 || apps[0].Load == nil {
		t.Fatalf("apps = %+v", apps)
	}
	if got := apps[0].Load.At(0); got != 0.1 {
		t.Errorf("trace At(0) = %g", got)
	}
	if got := apps[0].Load.At(70_000); got != 0.8 {
		t.Errorf("trace At(70s) = %g", got)
	}
	// Trace-driven apps are not retargetable.
	if _, ok := loads["xapian"]; ok {
		t.Error("trace app registered as mutable")
	}
	if _, _, err := parseMix("xapian:@/nonexistent.csv"); err == nil {
		t.Error("missing trace file accepted")
	}
}

func TestParseMixBEOnly(t *testing.T) {
	apps, _, err := parseMix("+stream")
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 1 || apps[0].BE == nil {
		t.Fatalf("apps = %+v", apps)
	}
}

func TestMakeStrategy(t *testing.T) {
	for _, name := range []string{"arq", "parties", "clite", "unmanaged", "lc-first"} {
		s, err := makeStrategy(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("makeStrategy(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := makeStrategy("ghost", 1); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestDaemonEndpoints(t *testing.T) {
	d, err := newDaemon("arq", "xapian:0.3,moses:0.2+stream", 1, 500, 0.8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Advance a few epochs synchronously.
	for i := 0; i < 6; i++ {
		d.stepEpoch()
	}

	get := func(h http.HandlerFunc, path string) map[string]interface{} {
		t.Helper()
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body.String())
		}
		var out map[string]interface{}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
		return out
	}

	status := get(d.handleStatus, "/v1/status")
	if status["strategy"] != "arq" {
		t.Errorf("status strategy = %v", status["strategy"])
	}
	if status["epoch"].(float64) != 6 {
		t.Errorf("status epoch = %v", status["epoch"])
	}

	ent := get(d.handleEntropy, "/v1/entropy")
	if ent["ri"].(float64) != 0.8 {
		t.Errorf("entropy ri = %v", ent["ri"])
	}

	allocRec := httptest.NewRecorder()
	d.handleAllocation(allocRec, httptest.NewRequest(http.MethodGet, "/v1/allocation", nil))
	if allocRec.Code != http.StatusOK {
		t.Fatalf("allocation: %d", allocRec.Code)
	}
	if !strings.Contains(allocRec.Body.String(), "CLOS0") {
		t.Errorf("allocation response missing RDT plan:\n%s", allocRec.Body.String())
	}

	telRec := httptest.NewRecorder()
	d.handleTelemetry(telRec, httptest.NewRequest(http.MethodGet, "/v1/telemetry", nil))
	var tel []map[string]interface{}
	if err := json.Unmarshal(telRec.Body.Bytes(), &tel); err != nil {
		t.Fatalf("telemetry: %v", err)
	}
	if len(tel) != 3 {
		t.Fatalf("telemetry has %d apps", len(tel))
	}

	conRec := httptest.NewRecorder()
	d.handleContention(conRec, httptest.NewRequest(http.MethodGet, "/v1/contention", nil))
	var con []map[string]interface{}
	if err := json.Unmarshal(conRec.Body.Bytes(), &con); err != nil {
		t.Fatalf("contention: %v", err)
	}
	if len(con) != 3 {
		t.Fatalf("contention has %d apps", len(con))
	}
	if con[0]["slowdown"].(float64) < 0.5 {
		t.Errorf("contention slowdown = %v", con[0]["slowdown"])
	}

	histRec := httptest.NewRecorder()
	d.handleHistory(histRec, httptest.NewRequest(http.MethodGet, "/v1/history", nil))
	var hist []map[string]interface{}
	if err := json.Unmarshal(histRec.Body.Bytes(), &hist); err != nil {
		t.Fatalf("history: %v", err)
	}
	if len(hist) != 6 {
		t.Fatalf("history has %d epochs, want 6", len(hist))
	}
	if hist[5]["epoch"].(float64) != 5 {
		t.Errorf("last history epoch = %v", hist[5]["epoch"])
	}
	if hist[0]["allocation"].(string) == "" {
		t.Error("history missing allocation strings")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	d, err := newDaemon("arq", "xapian:0.3+stream", 1, 500, 0.8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		d.stepEpoch()
	}
	rec := httptest.NewRecorder()
	d.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`ahq_entropy{component="system"}`,
		`ahq_p95_ms{app="xapian"}`,
		`ahq_ipc{app="stream"}`,
		"ahq_epoch 3",
		"# TYPE ahq_entropy gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestHistoryRingBuffer(t *testing.T) {
	d, err := newDaemon("unmanaged", "xapian:0.2+stream", 1, 100, 0.8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < historyLen+20; i++ {
		d.stepEpoch()
	}
	if len(d.history) != historyLen {
		t.Errorf("history length %d, want %d", len(d.history), historyLen)
	}
	if d.history[len(d.history)-1].Epoch != historyLen+19 {
		t.Errorf("newest epoch = %d", d.history[len(d.history)-1].Epoch)
	}
}

func TestDaemonLoadEndpoint(t *testing.T) {
	d, err := newDaemon("unmanaged", "xapian:0.3+stream", 1, 500, 0.8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	post := func(q string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		d.handleLoad(rec, httptest.NewRequest(http.MethodPost, "/v1/load?"+q, nil))
		return rec
	}
	if rec := post("app=xapian&frac=0.9"); rec.Code != http.StatusOK {
		t.Fatalf("valid load change: %d %s", rec.Code, rec.Body.String())
	}
	if got := d.loads["xapian"].At(0); got != 0.9 {
		t.Errorf("load = %g after change", got)
	}
	if rec := post("app=ghost&frac=0.5"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown app: %d", rec.Code)
	}
	if rec := post("app=xapian&frac=1.5"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad frac: %d", rec.Code)
	}
	getRec := httptest.NewRecorder()
	d.handleLoad(getRec, httptest.NewRequest(http.MethodGet, "/v1/load?app=xapian&frac=0.5", nil))
	if getRec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET on load: %d", getRec.Code)
	}
}

func TestSanitize(t *testing.T) {
	if sanitize(1.5) != 1.5 {
		t.Error("finite value changed")
	}
	if got := sanitize(math.NaN()); got != -1 {
		t.Errorf("NaN -> %g, want -1", got)
	}
	if got := sanitize(math.Inf(1)); got != -1 {
		t.Errorf("Inf -> %g, want -1", got)
	}
}

// TestDaemonSurvivesChaosPlan drives the daemon through a plan combining a
// strategy panic, failed applies and a telemetry dropout: no epoch may
// crash, every fault must be counted, and the allocation in force must stay
// valid throughout.
func TestDaemonSurvivesChaosPlan(t *testing.T) {
	plan, err := faults.Parse("panic@2,apply@3x2,drop@5")
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon("arq", "xapian:0.3,moses:0.2+stream", 1, 500, 0.8, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		d.stepEpoch()
	}
	if d.incidents == 0 || d.degraded == 0 {
		t.Errorf("incidents = %d, degraded = %d; faults went unrecorded", d.incidents, d.degraded)
	}
	if err := d.engine.Allocation().Validate(d.engine.Spec(),
		[]string{"xapian", "moses", "stream"}); err != nil {
		t.Errorf("allocation invalid after chaos: %v", err)
	}
	rec := httptest.NewRecorder()
	d.handleStatus(rec, httptest.NewRequest(http.MethodGet, "/v1/status", nil))
	var status map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if status["incidents"].(float64) == 0 {
		t.Error("status endpoint does not report incidents")
	}
}

// recordingStrategy records the system entropy of every observation its
// Decide receives.
type recordingStrategy struct {
	sched.Strategy
	es []float64
}

func (r *recordingStrategy) Decide(t sched.Telemetry, cur machine.Allocation) machine.Allocation {
	r.es = append(r.es, t.ES)
	return r.Strategy.Decide(t, cur)
}

// TestDaemonVetsTelemetryLikeCore: NaN-corrupted and stale windows are
// incidents and degraded epochs, as in core.Run, and the strategy is handed
// the held observation instead: no NaN entropy reaches Decide.
func TestDaemonVetsTelemetryLikeCore(t *testing.T) {
	plan, err := faults.Parse("nan@3x2,stale@6x2")
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon("arq", "xapian:0.5,moses:0.2,img-dnn:0.2+stream", 1, 500, 0.8, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingStrategy{Strategy: d.strategy}
	d.strategy = rec
	for i := 0; i < 10; i++ {
		d.stepEpoch()
	}
	w := httptest.NewRecorder()
	d.handleStatus(w, httptest.NewRequest(http.MethodGet, "/v1/status", nil))
	var status map[string]interface{}
	if err := json.Unmarshal(w.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	// Two corrupt epochs (3, 4) and two stale ones (6, 7).
	if got := status["incidents"].(float64); got != 4 {
		t.Errorf("status incidents = %v, want the 4 injected faults", got)
	}
	if got := status["degraded_epochs"].(float64); got != 4 {
		t.Errorf("status degraded_epochs = %v, want 4", got)
	}
	if len(rec.es) != 10 {
		t.Fatalf("Decide ran %d times, want once per epoch (10)", len(rec.es))
	}
	for epoch, es := range rec.es {
		if math.IsNaN(es) {
			t.Errorf("epoch %d: Decide received NaN E_S", epoch)
		}
	}
}

func TestDaemonFleetPlan(t *testing.T) {
	fp, err := faults.ParseFleet("crash@2x3,blackout@7x2")
	if err != nil {
		t.Fatal(err)
	}
	fp, err = fp.Resolve(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon("arq", "xapian:0.3,moses:0.2+stream", 1, 500, 0.8, nil, fp)
	if err != nil {
		t.Fatal(err)
	}
	simAt4 := 0.0
	for i := 0; i < 10; i++ {
		if i == 4 {
			simAt4 = d.engine.NowMs()
		}
		d.stepEpoch()
	}
	// Epochs 2-4 are down: no simulated time advances, three down epochs,
	// one crash with every app orphaned.
	if d.downEpochs != 3 || !d.failed {
		t.Errorf("downEpochs = %d failed = %v, want 3/true", d.downEpochs, d.failed)
	}
	if d.evictions != 3 {
		t.Errorf("evictions = %d, want 3 (whole mix at one crash)", d.evictions)
	}
	if simAt4 != 2*500 {
		t.Errorf("sim time at epoch 4 = %g ms, want 1000 (frozen during the crash)", simAt4)
	}
	// Epochs 7-8 are blacked out: telemetry drops count as incidents but
	// not as down epochs.
	if d.incidents < 2 {
		t.Errorf("incidents = %d, want >= 2 from the blackout", d.incidents)
	}
	if d.epoch != 10 {
		t.Errorf("epoch = %d, want 10 (crash must not stall the clock)", d.epoch)
	}
	rec := httptest.NewRecorder()
	d.handleStatus(rec, httptest.NewRequest(http.MethodGet, "/v1/status", nil))
	var status map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{"failed_nodes": 1, "down_epochs": 3, "evictions": 3} {
		if got := status[key].(float64); got != want {
			t.Errorf("status %s = %v, want %v", key, got, want)
		}
	}
}

func TestDaemonFleetPlanRejectsOtherNodes(t *testing.T) {
	fp, err := faults.ParseFleet("crash@2/node=3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fp.Resolve(1, 1); err == nil {
		t.Error("fleet plan naming node 3 resolved against a one-node fleet")
	}
}

// TestDaemonKeepsNoRunLatencies is the regression test for the daemon's
// unbounded growth: it reads only per-window telemetry, so the engine's
// run-level latency accumulator must not outlive an epoch. With nothing
// retained and an empty queue, RunP95 has no sample to report and is NaN;
// a daemon that never resets would report the p95 of every request it
// ever completed.
func TestDaemonKeepsNoRunLatencies(t *testing.T) {
	d, err := newDaemon("unmanaged", "xapian:0.2,moses:0.2+stream", 1, 500, 0.8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i := 0; i < 20; i++ {
		d.stepEpoch()
		for _, w := range d.lastTel.Apps {
			if w.Spec.Class != workload.LC || w.QueueLen != 0 {
				continue // RunP95 would report the oldest waiting request's age
			}
			checked++
			if p := d.engine.RunP95(w.Spec.Name, d.runMark); !math.IsNaN(p) {
				t.Fatalf("epoch %d: %s retains run-level latencies across epochs (RunP95 = %v)", i, w.Spec.Name, p)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no epoch ended with an empty queue; the check never ran")
	}
}
