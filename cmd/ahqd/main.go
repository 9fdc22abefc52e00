// Command ahqd runs the Ah-Q controller as a daemon over a simulated node
// and exposes its state through an HTTP JSON API — the deployment shape a
// production Ah-Q would have, with the simulator standing in for the
// RDT-capable host.
//
// Usage:
//
//	ahqd -listen :8080 -strategy arq -mix xapian:0.5,moses:0.2,img-dnn:0.2+stream
//
// Endpoints:
//
//	GET /v1/status      controller status: epoch, entropies, mean E_S,
//	                    incidents and degraded epochs (and injected faults
//	                    under a chaos plan)
//	GET /v1/telemetry   last epoch's per-application windows
//	GET /v1/allocation  current allocation and its RDT (CAT/MBA) plan
//	GET /v1/entropy     last epoch's entropy report
//	GET /v1/contention  per-application cores/ways/slowdown snapshot
//	GET /v1/history     ring buffer of the last 256 epochs
//	GET /metrics        Prometheus text exposition of the same signals
//	POST /v1/load?app=xapian&frac=0.7   change an application's offered load
//
// An LC load of the form "@file.csv" in -mix replays a recorded trace
// (see cmd/ahqload). The daemon advances simulated time in real time (one
// 500 ms epoch per 500 ms of wall clock) unless -fast is given, in which
// case it free-runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"ahq/internal/core"
	"ahq/internal/entropy"
	"ahq/internal/faults"
	"ahq/internal/machine"
	"ahq/internal/rdt"
	"ahq/internal/sched"
	"ahq/internal/sched/arq"
	"ahq/internal/sched/clite"
	"ahq/internal/sched/heracles"
	"ahq/internal/sched/parties"
	"ahq/internal/sched/static"
	"ahq/internal/sim"
	"ahq/internal/trace"
	"ahq/internal/units"
	"ahq/internal/workload"
)

func main() {
	var (
		listen  = flag.String("listen", ":8080", "HTTP listen address")
		strat   = flag.String("strategy", "arq", "strategy: arq|parties|clite|heracles|unmanaged|lc-first")
		mix     = flag.String("mix", "xapian:0.5,moses:0.2,img-dnn:0.2+stream", "workload mix: lc:load,...+be,...")
		seed    = flag.Int64("seed", 1, "simulation seed")
		epochMs = flag.Float64("epoch", 500, "monitoring interval in ms")
		fast    = flag.Bool("fast", false, "free-run instead of real time")
		ri      = flag.Float64("ri", entropy.DefaultRI, "relative importance of LC applications")

		chaosPlan = flag.String("chaos-plan", "", "fault plan spec (kind@epoch[xN|+],... with kinds apply|drop|stale|nan|panic)")
		chaosSeed = flag.Int64("chaos-seed", 0, "generate a random fault plan from this seed (0 = no faults; -chaos-plan wins)")
		fleetPlan = flag.String("fleet-plan", "", "fleet fault plan spec (crash|degrade|blackout@epoch[xN|+]) applied to this node as a one-node fleet")
	)
	flag.Parse()

	plan, err := faults.Parse(*chaosPlan)
	if err != nil {
		log.Fatalf("ahqd: %v", err)
	}
	if plan.Empty() && *chaosSeed != 0 {
		// Schedule the generated faults over the first minute of epochs.
		plan = faults.Generate(*chaosSeed, 120)
	}
	fp, err := faults.ParseFleet(*fleetPlan)
	if err != nil {
		log.Fatalf("ahqd: %v", err)
	}
	// The daemon is a one-node fleet: resolving over n=1 pins every event
	// to this node (and rejects selectors that name anything else).
	fp, err = fp.Resolve(*seed, 1)
	if err != nil {
		log.Fatalf("ahqd: %v", err)
	}

	d, err := newDaemon(*strat, *mix, *seed, *epochMs, *ri, plan, fp)
	if err != nil {
		log.Fatalf("ahqd: %v", err)
	}
	if !plan.Empty() {
		log.Printf("ahqd: chaos plan active: %s", plan)
	}
	if !fp.Empty() {
		log.Printf("ahqd: fleet plan active: %s", fp)
	}
	go d.loop(*fast)

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/status", d.handleStatus)
	mux.HandleFunc("/v1/telemetry", d.handleTelemetry)
	mux.HandleFunc("/v1/allocation", d.handleAllocation)
	mux.HandleFunc("/v1/entropy", d.handleEntropy)
	mux.HandleFunc("/v1/contention", d.handleContention)
	mux.HandleFunc("/v1/history", d.handleHistory)
	mux.HandleFunc("/v1/load", d.handleLoad)
	mux.HandleFunc("/metrics", d.handleMetrics)
	log.Printf("ahqd: %s strategy on %s, serving %s", *strat, *mix, *listen)
	log.Fatal(http.ListenAndServe(*listen, mux))
}

// mutableLoad is a trace the daemon can retarget at runtime.
type mutableLoad struct {
	mu   sync.RWMutex
	frac float64
}

func (m *mutableLoad) At(float64) float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.frac
}

func (m *mutableLoad) Set(frac float64) {
	m.mu.Lock()
	m.frac = frac
	m.mu.Unlock()
}

// historyLen bounds the in-memory epoch ring buffer served by /v1/history.
const historyLen = 256

// epochSummary is one epoch's compact record for the history endpoint.
type epochSummary struct {
	Epoch      int     `json:"epoch"`
	SimMs      float64 `json:"sim_ms"`
	ELC        float64 `json:"e_lc"`
	EBE        float64 `json:"e_be"`
	ES         float64 `json:"e_s"`
	Violations int     `json:"violations"`
	Allocation string  `json:"allocation"`
}

type daemon struct {
	mu     sync.Mutex
	engine *sim.Engine
	ctl    *core.Controller
	// strategy is the strategy the controller runs (fault-wrapped under a
	// chaos plan); the controller reaches it through daemonStrategy.
	strategy sched.Strategy
	ri       float64
	epochMs  float64
	loads    map[string]*mutableLoad
	injector *faults.Injector

	// epoch counts daemon epochs, down ones included; last is the latest
	// controller epoch's record, and the counters run over all of them.
	epoch     int
	last      core.EpochRecord
	sumES     float64
	measured  int
	incidents int
	history   []epochSummary

	// Fleet-plan state: the daemon is a one-node fleet, so crash events
	// freeze the node (down counts, no controller epoch) and blackout
	// events drop its telemetry. Degrades are logged and ignored — the
	// engine's capacity is fixed at construction.
	fleetPlan  *faults.FleetPlan
	appCount   int
	wasDown    bool
	failed     bool
	downEpochs int
	evictions  int
}

// daemonStrategy is the controller's view of the daemon's strategy field,
// which it reads when each call runs (Step runs under the daemon's lock).
type daemonStrategy struct{ d *daemon }

func (s daemonStrategy) Name() string { return s.d.strategy.Name() }

func (s daemonStrategy) Init(spec machine.Spec, apps []sched.AppSpec) machine.Allocation {
	return s.d.strategy.Init(spec, apps)
}

func (s daemonStrategy) Decide(t sched.Telemetry, cur machine.Allocation) machine.Allocation {
	return s.d.strategy.Decide(t, cur)
}

// newDaemon builds the controller stack; a non-empty fault plan wraps the
// node and the strategy with the injector so the daemon's degradation
// paths can be exercised end to end.
func newDaemon(stratName, mix string, seed int64, epochMs, ri float64, plan *faults.Plan, fleet *faults.FleetPlan) (*daemon, error) {
	// core.Options reads RI 0 as the paper's default, so the daemon takes
	// only a weight it can pass on unchanged.
	if !(ri > 0 && ri <= 1) {
		return nil, fmt.Errorf("relative importance %g outside (0,1]", ri)
	}
	apps, loads, err := parseMix(mix)
	if err != nil {
		return nil, err
	}
	engine, err := sim.New(sim.Config{Spec: machine.DefaultSpec(), Seed: seed, Apps: apps})
	if err != nil {
		return nil, err
	}
	strategy, err := makeStrategy(stratName, seed)
	if err != nil {
		return nil, err
	}
	d := &daemon{
		engine:    engine,
		strategy:  strategy,
		ri:        ri,
		epochMs:   epochMs,
		loads:     loads,
		fleetPlan: fleet,
		appCount:  len(apps),
	}
	if !fleet.Empty() {
		for _, ev := range fleet.Events {
			if ev.Kind == faults.NodeDegrade {
				log.Printf("ahqd: fleet plan degrade %s ignored: a live node cannot shrink its machine spec", ev)
			}
		}
	}
	var node core.Engine = engine
	if !plan.Empty() {
		d.injector = faults.NewInjector(plan)
		node = d.injector.Engine(engine)
		d.strategy = d.injector.Strategy(strategy)
	}
	if d.ctl, err = core.NewController(node, daemonStrategy{d}, core.Options{RI: ri}); err != nil {
		return nil, err
	}
	d.incidents = len(d.ctl.InitIncidents())
	return d, nil
}

func makeStrategy(name string, seed int64) (sched.Strategy, error) {
	switch name {
	case "arq":
		return arq.Default(), nil
	case "parties":
		return parties.Default(), nil
	case "clite":
		cfg := clite.DefaultConfig()
		cfg.Seed = seed
		return clite.New(cfg), nil
	case "heracles":
		return heracles.Default(), nil
	case "unmanaged":
		return static.Unmanaged{}, nil
	case "lc-first":
		return static.LCFirst{}, nil
	default:
		return nil, fmt.Errorf("unknown strategy %q", name)
	}
}

// parseMix parses "xapian:0.5,moses:0.2+stream,fluidanimate". An LC load
// of the form "@file.csv" replays a recorded load trace (trace.ReadCSV
// format) instead of holding a constant; such applications cannot be
// retargeted via /v1/load.
func parseMix(s string) ([]sim.AppConfig, map[string]*mutableLoad, error) {
	lcPart := s
	bePart := ""
	if i := strings.IndexByte(s, '+'); i >= 0 {
		lcPart, bePart = s[:i], s[i+1:]
	}
	var apps []sim.AppConfig
	loads := map[string]*mutableLoad{}
	for _, item := range strings.Split(lcPart, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, fracStr, ok := strings.Cut(item, ":")
		if !ok {
			return nil, nil, fmt.Errorf("LC app %q needs name:load", item)
		}
		app, err := workload.LCByName(name)
		if err != nil {
			return nil, nil, err
		}
		if path, isTrace := strings.CutPrefix(fracStr, "@"); isTrace {
			f, err := os.Open(path)
			if err != nil {
				return nil, nil, fmt.Errorf("LC app %q: %w", name, err)
			}
			profile, err := trace.ReadCSV(f)
			f.Close()
			if err != nil {
				return nil, nil, fmt.Errorf("LC app %q: %w", name, err)
			}
			apps = append(apps, sim.AppConfig{LC: &app, Load: profile})
			continue
		}
		frac, err := parseLoad(fracStr)
		if err != nil {
			return nil, nil, fmt.Errorf("LC app %q: %w", name, err)
		}
		ld := &mutableLoad{frac: frac}
		loads[name] = ld
		apps = append(apps, sim.AppConfig{LC: &app, Load: ld})
	}
	for _, name := range strings.Split(bePart, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		app, err := workload.BEByName(name)
		if err != nil {
			return nil, nil, err
		}
		apps = append(apps, sim.AppConfig{BE: &app})
	}
	if len(apps) == 0 {
		return nil, nil, fmt.Errorf("empty mix %q", s)
	}
	return apps, loads, nil
}

// parseLoad parses an offered-load fraction. The comparison is written so
// that NaN, which ParseFloat accepts and which fails every comparison, is
// rejected with the out-of-range values.
func parseLoad(s string) (float64, error) {
	frac, err := strconv.ParseFloat(s, 64)
	if err != nil || !(frac >= 0 && frac <= 1) {
		return 0, fmt.Errorf("bad load %q: want a fraction in [0,1]", s)
	}
	return frac, nil
}

// loop advances one monitoring epoch at a time.
func (d *daemon) loop(fast bool) {
	interval := units.MsToDuration(d.epochMs)
	for {
		if !fast {
			time.Sleep(interval)
		}
		d.stepEpoch()
	}
}

func (d *daemon) stepEpoch() {
	d.mu.Lock()
	defer d.mu.Unlock()
	// A fleet-plan crash freezes the node: no simulated time, no telemetry,
	// no controller epoch — only the down accounting the fleet engine keeps.
	if d.fleetPlan.DownAt(0, d.epoch) {
		if !d.wasDown {
			log.Printf("ahqd: fleet plan crashed the node at epoch %d", d.epoch)
			d.failed = true
			d.wasDown = true
			d.evictions += d.appCount
		}
		d.downEpochs++
		d.record(epochSummary{ELC: -1, EBE: -1, ES: -1})
		return
	}
	if d.wasDown {
		log.Printf("ahqd: node restarted at epoch %d after %d down epochs", d.epoch, d.downEpochs)
		d.wasDown = false
	}
	node := d.ctl.Engine()
	windows := node.RunWindow(d.epochMs)
	if d.fleetPlan.At(faults.NodeBlackout, 0, d.epoch) {
		// Whole-node telemetry blackout: the node keeps running but the
		// controller sees nothing this epoch.
		windows = nil
	}
	rec := d.ctl.Step(windows, node.NowMs())
	for _, in := range rec.Incidents {
		log.Printf("ahqd: epoch %d: %s: %s", d.epoch, in.Kind, in.Detail)
	}
	d.incidents += len(rec.Incidents)
	if rec.TelemetryOK {
		d.sumES += rec.ES
		d.measured++
	}
	d.last = rec
	d.record(epochSummary{ELC: sanitize(rec.ELC), EBE: sanitize(rec.EBE), ES: sanitize(rec.ES), Violations: rec.LCViolations})
}

// record stamps the epoch's summary with its number, time and allocation,
// appends it to the bounded history and ends the epoch.
func (d *daemon) record(sum epochSummary) {
	sum.Epoch, sum.SimMs, sum.Allocation = d.epoch, d.engine.NowMs(), d.engine.Allocation().String()
	d.history = append(d.history, sum)
	if len(d.history) > historyLen {
		d.history = d.history[len(d.history)-historyLen:]
	}
	d.epoch++
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (d *daemon) handleStatus(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	defer d.mu.Unlock()
	mean := 0.0
	if d.measured > 0 {
		mean = d.sumES / float64(d.measured)
	}
	status := map[string]interface{}{
		"strategy":        d.strategy.Name(),
		"epoch":           d.epoch,
		"sim_ms":          d.engine.NowMs(),
		"e_lc":            sanitize(d.last.ELC),
		"e_be":            sanitize(d.last.EBE),
		"e_s":             sanitize(d.last.ES),
		"mean_e_s":        mean,
		"incidents":       d.incidents,
		"degraded_epochs": d.ctl.DegradedEpochs() + d.downEpochs,
		"failed_nodes":    boolToInt(d.failed),
		"down_epochs":     d.downEpochs,
		"evictions":       d.evictions,
	}
	if d.injector != nil {
		// Under a chaos plan every injected fault is one incident.
		status["injected_faults"] = d.injector.Stats().Total()
	}
	writeJSON(w, status)
}

func (d *daemon) handleTelemetry(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	defer d.mu.Unlock()
	type appJSON struct {
		Name      string  `json:"name"`
		Class     string  `json:"class"`
		P95Ms     float64 `json:"p95_ms,omitempty"`
		TargetMs  float64 `json:"target_ms,omitempty"`
		QueueLen  int     `json:"queue_len,omitempty"`
		Completed int     `json:"completed,omitempty"`
		Dropped   int     `json:"dropped,omitempty"`
		IPC       float64 `json:"ipc,omitempty"`
		SoloIPC   float64 `json:"solo_ipc,omitempty"`
	}
	var out []appJSON
	for _, a := range d.last.Apps {
		j := appJSON{Name: a.Spec.Name, Class: a.Spec.Class.String()}
		if a.Spec.Class == workload.LC {
			j.P95Ms, j.TargetMs = sanitize(a.P95Ms), a.Spec.QoSTargetMs
			j.QueueLen, j.Completed, j.Dropped = a.QueueLen, a.Completed, a.Dropped
		} else {
			j.IPC, j.SoloIPC = a.IPC, a.Spec.SoloIPC
		}
		out = append(out, j)
	}
	writeJSON(w, out)
}

func (d *daemon) handleAllocation(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	alloc := d.engine.Allocation()
	spec := d.engine.Spec()
	d.mu.Unlock()
	plan, err := rdt.BuildPlan(spec, alloc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]interface{}{
		"allocation": alloc.String(),
		"rdt_plan":   plan.String(),
	})
}

func (d *daemon) handleEntropy(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	defer d.mu.Unlock()
	writeJSON(w, map[string]interface{}{
		"e_lc": sanitize(d.last.ELC),
		"e_be": sanitize(d.last.EBE),
		"e_s":  sanitize(d.last.ES),
		"ri":   d.ri,
	})
}

func (d *daemon) handleContention(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	snap := d.engine.Contention()
	d.mu.Unlock()
	type conJSON struct {
		Name            string  `json:"name"`
		Class           string  `json:"class"`
		ActiveThreads   int     `json:"active_threads"`
		IsolatedCores   int     `json:"isolated_cores"`
		SharedShare     float64 `json:"shared_share"`
		TotalCoreShare  float64 `json:"total_core_share"`
		EffectiveWays   float64 `json:"effective_ways"`
		Slowdown        float64 `json:"slowdown"`
		DispatchDelayMs float64 `json:"dispatch_delay_ms"`
		QueueLen        int     `json:"queue_len"`
	}
	out := make([]conJSON, 0, len(snap))
	for _, c := range snap {
		out = append(out, conJSON{
			Name: c.Name, Class: c.Class.String(),
			ActiveThreads: c.ActiveThreads, IsolatedCores: c.IsolatedCores,
			SharedShare: c.SharedShare, TotalCoreShare: c.TotalCoreShare,
			EffectiveWays: c.EffectiveWays, Slowdown: c.Slowdown,
			DispatchDelayMs: c.DispatchDelayMs, QueueLen: c.QueueLen,
		})
	}
	writeJSON(w, out)
}

// handleMetrics exposes the entropy signals and per-application telemetry
// in Prometheus text exposition format, so a scraper can chart the
// controller the way the paper's Fig. 13 does.
func (d *daemon) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	defer d.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# HELP ahq_entropy System entropy components (dimensionless, 0-1).\n")
	fmt.Fprintf(w, "# TYPE ahq_entropy gauge\n")
	fmt.Fprintf(w, "ahq_entropy{component=\"lc\"} %g\n", sanitize(d.last.ELC))
	fmt.Fprintf(w, "ahq_entropy{component=\"be\"} %g\n", sanitize(d.last.EBE))
	fmt.Fprintf(w, "ahq_entropy{component=\"system\"} %g\n", sanitize(d.last.ES))
	fmt.Fprintf(w, "# HELP ahq_epoch Monitoring epochs completed.\n")
	fmt.Fprintf(w, "# TYPE ahq_epoch counter\n")
	fmt.Fprintf(w, "ahq_epoch %d\n", d.epoch)
	fmt.Fprintf(w, "# HELP ahq_p95_ms Per-application p95 latency last epoch.\n")
	fmt.Fprintf(w, "# TYPE ahq_p95_ms gauge\n")
	for _, a := range d.last.Apps {
		if a.Spec.Class == workload.LC {
			fmt.Fprintf(w, "ahq_p95_ms{app=%q} %g\n", a.Spec.Name, sanitize(a.P95Ms))
		}
	}
	fmt.Fprintf(w, "# HELP ahq_ipc Per-application IPC last epoch.\n")
	fmt.Fprintf(w, "# TYPE ahq_ipc gauge\n")
	for _, a := range d.last.Apps {
		if a.Spec.Class == workload.BE {
			fmt.Fprintf(w, "ahq_ipc{app=%q} %g\n", a.Spec.Name, sanitize(a.IPC))
		}
	}
}

func (d *daemon) handleHistory(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	out := append([]epochSummary(nil), d.history...)
	d.mu.Unlock()
	writeJSON(w, out)
}

func (d *daemon) handleLoad(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	app := r.URL.Query().Get("app")
	frac, err := parseLoad(r.URL.Query().Get("frac"))
	if err != nil {
		http.Error(w, "frac must be in [0,1]", http.StatusBadRequest)
		return
	}
	ld, ok := d.loads[app]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown LC app %q", app), http.StatusNotFound)
		return
	}
	ld.Set(frac)
	writeJSON(w, map[string]interface{}{"app": app, "frac": frac})
}

// boolToInt renders a flag as the 0/1 counter the fleet endpoints use.
func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sanitize maps NaN to -1 for JSON encoding.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

var _ trace.Load = (*mutableLoad)(nil)
