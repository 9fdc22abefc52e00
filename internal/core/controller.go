// Package core implements the Ah-Q controller: the daemon loop that every
// monitoring epoch (500 ms in the paper) reads tail latency and IPC from the
// node, computes the system entropy, hands the telemetry to the plugged-in
// scheduling strategy, and applies the allocation the strategy returns.
// It also aggregates the run-level results the evaluation reports: average
// entropies, per-application latency and IPC, yield, and QoS violations.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"ahq/internal/entropy"
	"ahq/internal/machine"
	"ahq/internal/metrics"
	"ahq/internal/sched"
	"ahq/internal/workload"
)

// Options configure one controlled run.
type Options struct {
	// EpochMs is the monitoring interval; 0 means the paper's 500 ms.
	EpochMs float64
	// WarmupMs is discarded from run-level statistics (the system needs a
	// few epochs to converge); 0 means 10000 ms, negative means no
	// warm-up.
	WarmupMs float64
	// DurationMs is the measured horizon after warm-up; 0 means 20000 ms.
	DurationMs float64
	// RI is the relative importance of LC applications; 0 means the
	// paper's 0.8.
	RI float64
	// RecordTimeline retains per-epoch windows and allocations in the
	// result (needed by the Fig. 13 experiment; off by default to keep
	// sweeps lean).
	RecordTimeline bool
}

// WithDefaults returns the options as Run will actually interpret them,
// zero fields replaced by the documented defaults. Exported for callers
// that key work on the effective options — the fleet engine's node-outcome
// cache serialises the normalised form so that a default spelled
// explicitly and a zero value cannot split a cache key.
func (o Options) WithDefaults() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.EpochMs <= 0 {
		o.EpochMs = 500
	}
	if o.WarmupMs < 0 {
		o.WarmupMs = 0
	} else if o.WarmupMs == 0 {
		o.WarmupMs = 10000
	}
	if o.DurationMs <= 0 {
		o.DurationMs = 20000
	}
	if o.RI == 0 {
		o.RI = entropy.DefaultRI
	}
	return o
}

// EpochRecord is one monitoring interval's observation and decision.
type EpochRecord struct {
	TimeMs       float64
	Apps         []sched.AppWindow
	ELC, EBE, ES float64
	Allocation   machine.Allocation
	Adjusted     bool
	LCViolations int
	QueuedTotal  int
	DroppedTotal int
	// TelemetryOK is false when this epoch's observation was dropped,
	// stale, or corrupt and the previous one was held instead.
	TelemetryOK bool
	// Degraded reports whether the controller operated degraded this epoch
	// (any incident, or an apply suppressed by backoff).
	Degraded bool
	// Incidents are this epoch's degradation events, if any.
	Incidents []Incident
}

// AppResult is the run-level summary for one application.
type AppResult struct {
	Spec sched.AppSpec
	// MeanP95Ms averages the epoch p95 values over the measured horizon
	// (TL_i1 of the paper's tables). LC only.
	MeanP95Ms float64
	// ViolationEpochs counts measured epochs whose p95 exceeded the
	// target. LC only.
	ViolationEpochs int
	// Completed and Dropped total over the measured horizon. LC only.
	Completed, Dropped int
	// MeanIPC averages the epoch IPC values. BE only.
	MeanIPC float64
	// Sample is the run-level entropy input derived from the above.
	LCSample entropy.LCSample
	BESample entropy.BESample
}

// Result is the outcome of one controlled run.
type Result struct {
	Strategy string
	// MeanELC/MeanEBE/MeanES average the per-epoch entropies over the
	// measured horizon (the values the paper's bar charts report).
	MeanELC, MeanEBE, MeanES float64
	// RunELC/RunEBE/RunES are computed from run-level mean latencies and
	// IPCs (the values the paper's Table II reports).
	RunELC, RunEBE, RunES float64
	// Yield is the ratio of LC applications whose run-level Q_i is zero.
	Yield float64
	// Apps holds per-application summaries, LC first.
	Apps []AppResult
	// Epochs counts measured monitoring intervals; Adjustments counts
	// epochs in which the strategy changed the allocation.
	Epochs, Adjustments int
	// TotalViolationEpochs sums LC violation epochs over applications
	// (the "tail latency violations" count of Fig. 13).
	TotalViolationEpochs int
	// Timeline holds per-epoch records when Options.RecordTimeline.
	Timeline []EpochRecord
	// FinalAllocation is the allocation in force when the run ended.
	FinalAllocation machine.Allocation
	// Incidents records every degradation event the run survived, in
	// epoch order (empty on a healthy run).
	Incidents []Incident
	// DegradedEpochs counts monitoring intervals (warm-up included) in
	// which the controller operated degraded: an incident occurred or a
	// wanted adjustment was suppressed by apply backoff.
	DegradedEpochs int
}

// Degradation policy bounds (DESIGN.md §7). An allocation rejection is
// retried on the strategy's next decisions for maxApplyRetries consecutive
// epochs before the controller re-asserts the last-known-good allocation;
// if even that is rejected the actuator itself is down and applies are
// suppressed for an exponentially growing, capped number of epochs.
const (
	maxApplyRetries  = 3
	maxBackoffEpochs = 8
)

// safeInit calls strategy.Init, converting a panic into a recorded message
// so a misbehaving strategy cannot crash the run before it starts.
func safeInit(s sched.Strategy, spec machine.Spec, apps []sched.AppSpec) (alloc machine.Allocation, panicMsg string) {
	defer func() {
		if r := recover(); r != nil {
			panicMsg = fmt.Sprint(r)
		}
	}()
	return s.Init(spec, apps), ""
}

// SafeDecide calls strategy.Decide, converting a panic into a recorded
// message; the caller holds the current allocation in that case.
func SafeDecide(s sched.Strategy, t sched.Telemetry, cur machine.Allocation) (next machine.Allocation, panicMsg string) {
	defer func() {
		if r := recover(); r != nil {
			panicMsg = fmt.Sprint(r)
		}
	}()
	return s.Decide(t, cur), ""
}

// CheckWindows vets an epoch's windows before anything reads them. It
// returns the incident that disqualifies them and false: no windows
// delivered (dropped), a timestamp nowMs that did not advance past
// lastNowMs (a stale replay), or physically impossible metrics — LC
// completions with a NaN or negative p95, NaN or negative BE IPC — which
// come from a corrupted telemetry path and must not reach the entropy
// computation or be mistaken for starvation. Fresh, plausible windows
// return true.
func CheckWindows(epoch int, windows []sched.AppWindow, nowMs, lastNowMs float64) (Incident, bool) {
	bad := func(kind IncidentKind, detail string) (Incident, bool) {
		return Incident{Epoch: epoch, Kind: kind, Detail: detail}, false
	}
	switch {
	case len(windows) == 0:
		return bad(IncidentTelemetryDropped, "no windows delivered")
	case nowMs <= lastNowMs:
		return bad(IncidentTelemetryStale, fmt.Sprintf("window timestamp %.0f ms did not advance", nowMs))
	}
	for _, w := range windows {
		if w.Spec.Class == workload.LC {
			if w.Completed > 0 && math.IsNaN(w.P95Ms) {
				return bad(IncidentTelemetryCorrupt, w.Spec.Name+": completions with NaN p95")
			}
			if !math.IsNaN(w.P95Ms) && w.P95Ms < 0 {
				return bad(IncidentTelemetryCorrupt, w.Spec.Name+": negative p95")
			}
		} else if math.IsNaN(w.IPC) || w.IPC < 0 {
			return bad(IncidentTelemetryCorrupt, w.Spec.Name+": NaN or negative IPC")
		}
	}
	return Incident{}, true
}

// Run drives the engine under the strategy for warm-up plus the measured
// horizon and aggregates the results: RunHorizons with a single horizon.
//
// Run degrades instead of dying: a strategy panic holds the in-force
// allocation, a mid-run allocation rejection is retried and then replaced
// by the last-known-good allocation, and dropped/stale/corrupt telemetry
// holds the previous epoch's observation and entropy rather than feeding
// NaN to strategies. Every such event is recorded in Result.Incidents. The
// only remaining error return after a successful start is impossible input
// (an initial allocation the node rejects), which is a configuration error
// rather than a runtime fault.
func Run(engine Engine, strategy sched.Strategy, opts Options) (*Result, error) {
	res, err := RunHorizons(engine, strategy, []Options{opts})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// horizon is one measurement window RunHorizons cuts from the shared
// simulation: its epoch bounds, the start it shares accumulators and a
// run mark with, and what it keeps of the run at its last epoch.
type horizon struct {
	// The horizon measures the epochs [start.warm, total); markAt is the
	// epoch before which the engine run mark is taken — the warm-up end,
	// or 0 when the horizon measures nothing, whose run-level aggregates
	// then span the whole run.
	total, markAt int
	start         *start
	// acc is the start's accumulators as of the horizon's last epoch, and
	// runs the engine's run-level aggregates then (by spec index).
	acc  accum
	runs []appCut
	res  *Result
}

// start is what every horizon with one warm-up end and mark shares: the
// engine run mark and running accumulators over the measured epochs from
// warm on, up to the latest of their last epochs. Each horizon snapshots
// the accumulators at its own last epoch; every sum adds its epochs in
// order from warm, so a shorter window's snapshot is bit-identical to
// accumulating it alone.
type start struct {
	warm, markAt, end int
	mark              int
	acc               accum
}

// accum accumulates a measurement's epochs.
type accum struct {
	apps                      []appAccum // by spec index
	elcSum, ebeSum, esSum     float64
	measured                  int
	epochs, adjustments, viol int
}

// appAccum accumulates one application's measured windows. The p95 and
// ipc lists only grow, so a snapshot shares their backing arrays.
type appAccum struct {
	p95   []float64
	ipc   []float64
	compl int
	drops int
	viol  int
}

// appCut is one application's run-level aggregates since the horizon's
// mark, as of its last epoch: an LC application's completion count and,
// once selected after the run, its p95 (when it completed nothing, the
// age of its oldest waiting request then); a BE application's IPC.
type appCut struct {
	n   int
	p95 float64
	ipc float64
}

// measures reports whether epoch lies in the start's measured range.
func (s *start) measures(epoch int) bool { return epoch >= s.warm && epoch < s.end }

// snapshot copies the accumulators in O(apps): a copied list header keeps
// its prefix, since the lists only grow.
func (a *accum) snapshot() accum {
	c := *a
	c.apps = slices.Clone(a.apps)
	return c
}

// RunHorizons drives the engine under the strategy once, to the longest of
// the horizons, and returns one result per horizon. The horizon only
// decides where measurement starts (the warm-up end, a run mark on the
// engine) and stops; it never reaches the engine's dynamics or the
// strategy. So result i is bit-identical to Run on a fresh engine and
// strategy with opts[i], while the shared prefix is simulated once. Every
// horizon must agree on EpochMs, RI and RecordTimeline after defaults.
//
// A horizon's result covers exactly its own epochs: the measured sums and
// counters of its window, DegradedEpochs, incidents and timeline over
// [0, total), and the run-level latencies, IPCs and final allocation as of
// its last epoch. Horizons with equal warm-up ends share one run mark and
// one set of accumulators. At a horizon's last epoch RunHorizons records
// an O(apps) cut: the accumulators, each application's completion count
// since the mark (or the age of a starved application's oldest waiting
// request), its run IPC, the allocation, and the incident and timeline
// slices. Every horizon — one or many — is finished after the last epoch,
// when the run-level p95s are selected over each cut of the latency
// buffer (selectP95s); many windows thus cost the epoch loop almost
// nothing.
func RunHorizons(engine Engine, strategy sched.Strategy, opts []Options) ([]*Result, error) {
	if len(opts) == 0 {
		return nil, fmt.Errorf("core: no horizons to run")
	}
	base := opts[0].withDefaults()
	hs := make([]horizon, len(opts))
	var starts []*start
	last := 0
	for i, o := range opts {
		o = o.withDefaults()
		if o.EpochMs != base.EpochMs || o.RI != base.RI || o.RecordTimeline != base.RecordTimeline {
			return nil, fmt.Errorf("core: horizon %d disagrees with horizon 0 on EpochMs, RI or RecordTimeline", i)
		}
		h := &hs[i]
		h.total = int(math.Ceil((o.WarmupMs + o.DurationMs) / o.EpochMs))
		warm := int(math.Ceil(o.WarmupMs / o.EpochMs))
		if warm < h.total {
			h.markAt = warm
		}
		for _, s := range starts {
			if s.warm == warm && s.markAt == h.markAt {
				h.start = s
				break
			}
		}
		if h.start == nil {
			h.start = &start{warm: warm, markAt: h.markAt}
			starts = append(starts, h.start)
		}
		h.start.end = max(h.start.end, h.total)
		last = max(last, h.total)
	}

	specs := engine.AppSpecs()
	name := strategy.Name()
	var incidents []Incident
	alloc, initPanic := safeInit(strategy, engine.Spec(), specs)
	if initPanic != "" {
		// Degrade to the allocation already in force (the engine starts
		// unmanaged), the safest state we can guarantee exists.
		incidents = append(incidents, Incident{Epoch: -1, Kind: IncidentStrategyPanic, Detail: initPanic})
		alloc = engine.Allocation()
	}
	if err := engine.SetAllocation(alloc); err != nil {
		return nil, fmt.Errorf("core: %s initial allocation rejected: %w", name, err)
	}
	sys := entropy.System{RI: base.RI}
	for _, s := range starts {
		s.acc.apps = make([]appAccum, len(specs))
	}
	var timeline []EpochRecord
	degradedEpochs := 0

	// Degradation state: the last allocation the node accepted, the last
	// healthy telemetry (held over fault epochs), and the retry/backoff
	// counters of the apply path.
	lastGood := engine.Allocation()
	heldELC, heldEBE, heldES := math.NaN(), math.NaN(), math.NaN()
	var heldApps []sched.AppWindow
	lastNowMs := engine.NowMs()
	rejectStreak, backoffLen, backoffUntil := 0, 0, 0

	for epoch := 0; epoch < last; epoch++ {
		for _, s := range starts {
			if s.markAt == epoch {
				s.mark = engine.MarkRun()
			}
		}
		epochIncidents := len(incidents)
		windows := engine.RunWindow(base.EpochMs)
		nowMs := engine.NowMs()

		in, winOK := CheckWindows(epoch, windows, nowMs, lastNowMs)
		if !winOK {
			incidents = append(incidents, in)
		}
		if nowMs > lastNowMs {
			lastNowMs = nowMs
		}

		tel := sched.Telemetry{Epoch: epoch, TelemetryOK: winOK}
		if winOK {
			tel.TimeMs = nowMs
			tel.Apps = orderWindows(windows, specs)
			lcS, beS := SamplesFromWindows(tel.Apps)
			elc, ebe, es, err := sys.Compute(lcS, beS)
			if err == nil {
				tel.ELC, tel.EBE, tel.ES = elc, ebe, es
				heldELC, heldEBE, heldES = elc, ebe, es
			} else {
				// Plausible windows but no computable entropy: hold the
				// previous value so strategies never see NaN mid-run.
				tel.TelemetryOK = false
				tel.ELC, tel.EBE, tel.ES = heldELC, heldEBE, heldES
				incidents = append(incidents, Incident{Epoch: epoch,
					Kind: IncidentEntropyHeld, Detail: err.Error()})
			}
			heldApps = tel.Apps
		} else {
			// Hold the previous healthy observation; before any healthy
			// epoch exists the apps are empty and the entropies NaN.
			tel.TimeMs = lastNowMs
			tel.Apps = heldApps
			tel.ELC, tel.EBE, tel.ES = heldELC, heldEBE, heldES
		}

		// Per-application accumulation only for genuinely fresh windows;
		// held (replayed) observations must not be double counted.
		violations := 0
		queued, dropped := 0, 0
		if winOK {
			for _, w := range tel.Apps {
				if w.Spec.Class == workload.LC {
					queued += w.QueueLen
					dropped += w.Dropped
					if w.Violates() {
						violations++
					}
				}
			}
		}
		entropyOK := winOK && tel.TelemetryOK
		for _, s := range starts {
			if !s.measures(epoch) {
				continue
			}
			acc := &s.acc
			if entropyOK {
				acc.elcSum += tel.ELC
				acc.ebeSum += tel.EBE
				acc.esSum += tel.ES
				acc.measured++
			}
			if winOK {
				for j, w := range tel.Apps {
					a := &acc.apps[j]
					if w.Spec.Class != workload.LC {
						a.ipc = append(a.ipc, w.IPC)
						continue
					}
					if !math.IsNaN(w.P95Ms) {
						a.p95 = append(a.p95, w.P95Ms)
					}
					a.compl += w.Completed
					a.drops += w.Dropped
					if w.Violates() {
						a.viol++
					}
				}
			}
			acc.epochs++
			acc.viol += violations
		}

		cur := engine.Allocation()
		next, panicMsg := SafeDecide(strategy, tel, cur)
		if panicMsg != "" {
			incidents = append(incidents, Incident{Epoch: epoch,
				Kind: IncidentStrategyPanic, Detail: panicMsg})
			next = cur // hold the in-force allocation
		}
		adjusted := !next.Equal(cur)
		suppressed := false
		if adjusted {
			if epoch < backoffUntil {
				// The actuator was recently rejecting even the known-good
				// allocation; do not hammer it.
				adjusted, suppressed = false, true
			} else if err := engine.SetAllocation(next); err == nil {
				rejectStreak, backoffLen = 0, 0
				lastGood = engine.Allocation()
				for _, s := range starts {
					if s.measures(epoch) {
						s.acc.adjustments++
					}
				}
			} else {
				adjusted = false
				rejectStreak++
				incidents = append(incidents, Incident{Epoch: epoch,
					Kind: IncidentAllocationRejected, Detail: err.Error()})
				if rejectStreak >= maxApplyRetries {
					rejectStreak = 0
					if fbErr := engine.SetAllocation(lastGood); fbErr != nil {
						incidents = append(incidents, Incident{Epoch: epoch,
							Kind: IncidentFallbackRejected, Detail: fbErr.Error()})
						if backoffLen == 0 {
							backoffLen = 1
						} else if backoffLen*2 <= maxBackoffEpochs {
							backoffLen *= 2
						} else {
							backoffLen = maxBackoffEpochs
						}
						backoffUntil = epoch + 1 + backoffLen
					}
				}
			}
		}
		degraded := suppressed || len(incidents) > epochIncidents
		if degraded {
			degradedEpochs++
		}
		if base.RecordTimeline {
			timeline = append(timeline, EpochRecord{
				TimeMs:       tel.TimeMs,
				Apps:         tel.Apps,
				ELC:          tel.ELC,
				EBE:          tel.EBE,
				ES:           tel.ES,
				Allocation:   engine.Allocation(),
				Adjusted:     adjusted,
				LCViolations: violations,
				QueuedTotal:  queued,
				DroppedTotal: dropped,
				TelemetryOK:  tel.TelemetryOK,
				Degraded:     degraded,
				Incidents:    incidents[epochIncidents:len(incidents):len(incidents)],
			})
		}

		for i := range hs {
			if h := &hs[i]; h.total == epoch+1 {
				h.cut(engine, specs, name, degradedEpochs, incidents, timeline)
			}
		}
	}

	selectP95s(engine, specs, hs)
	out := make([]*Result, len(hs))
	for i := range hs {
		hs[i].finish(specs, sys)
		out[i] = hs[i].res
	}
	for _, s := range starts {
		engine.ReleaseRun(s.mark)
	}
	return out, nil
}

// cut records what the horizon keeps of the run at its last epoch: the
// accumulators, the run-level aggregates since its mark, and the counters,
// incidents, timeline and allocation as of now. It reads no latency
// buffer, so it costs O(apps) however long the run was.
func (h *horizon) cut(engine Engine, specs []sched.AppSpec, name string, degradedEpochs int, incidents []Incident, timeline []EpochRecord) {
	mark := h.start.mark
	h.acc = h.start.acc.snapshot()
	h.runs = make([]appCut, len(specs))
	for j, s := range specs {
		c := &h.runs[j]
		if s.Class != workload.LC {
			c.ipc = engine.RunIPC(s.Name, mark)
			continue
		}
		c.n = engine.RunCompleted(s.Name, mark)
		if c.n == 0 {
			// Starved: the run-level lower bound is the age of the oldest
			// waiting request now, which later epochs would overwrite.
			c.p95 = engine.RunP95(s.Name, mark)
		}
	}
	h.res = &Result{
		Strategy:             name,
		Epochs:               h.acc.epochs,
		Adjustments:          h.acc.adjustments,
		TotalViolationEpochs: h.acc.viol,
		DegradedEpochs:       degradedEpochs,
		Incidents:            incidents[:len(incidents):len(incidents)],
		FinalAllocation:      engine.Allocation(),
	}
	if timeline != nil {
		h.res.Timeline = timeline[:len(timeline):len(timeline)]
	}
}

// selectP95s selects every horizon's run-level p95s over its cut of the
// latency buffer, after the run. A horizon's cut spans the completions of
// its epochs [markAt, total), so epoch windows order the cuts: a window
// nested in another, or disjoint from it, has a cut nested in or disjoint
// from the other's. A horizon selects in place — reordering its cut, never
// its multiset — only when every horizon selected after it contains or
// misses its window; any other, such as a window that partially overlaps
// a later one, selects on a copy. Windows with one start are nested, so
// they go in increasing length, and the largest such family goes last:
// a prefix sweep selects wholly in place, and only the few windows that
// start elsewhere pay for a copy.
func selectP95s(engine Engine, specs []sched.AppSpec, hs []horizon) {
	family := make(map[int]int, 2) // horizons per start epoch
	order := make([]int, len(hs))
	for i := range hs {
		family[hs[i].markAt]++
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int {
		a, b := &hs[x], &hs[y]
		if c := cmp.Compare(family[a.markAt], family[b.markAt]); c != 0 {
			return c
		}
		if c := cmp.Compare(a.markAt, b.markAt); c != 0 {
			return c
		}
		return cmp.Compare(a.total, b.total)
	})
	for k, i := range order {
		h := &hs[i]
		inPlace := true
		for _, l := range order[k+1:] {
			o := &hs[l]
			nested := o.markAt <= h.markAt && o.total >= h.total
			apart := o.total <= h.markAt || h.total <= o.markAt
			if !nested && !apart {
				inPlace = false
				break
			}
		}
		for j, s := range specs {
			if c := &h.runs[j]; s.Class == workload.LC && c.n > 0 {
				c.p95 = engine.RunP95Prefix(s.Name, h.start.mark, c.n, inPlace)
			}
		}
	}
}

// finish completes the horizon's result from its cut: the mean entropies
// over its measured epochs, and the run-level summaries and entropies from
// the engine's aggregates since its mark.
func (h *horizon) finish(specs []sched.AppSpec, sys entropy.System) {
	res := h.res
	if h.acc.measured > 0 {
		res.MeanELC = h.acc.elcSum / float64(h.acc.measured)
		res.MeanEBE = h.acc.ebeSum / float64(h.acc.measured)
		res.MeanES = h.acc.esSum / float64(h.acc.measured)
	}

	// Run-level summaries and entropies from mean latencies/IPCs.
	var lcRun []entropy.LCSample
	var beRun []entropy.BESample
	for j, s := range specs {
		a, c := &h.acc.apps[j], &h.runs[j]
		ar := AppResult{Spec: s}
		if s.Class == workload.LC {
			// Run-level tail latency is the exact percentile over every
			// completion in the measured horizon; the windowed mean is a
			// fallback for starved runs.
			ar.MeanP95Ms = c.p95
			if math.IsNaN(ar.MeanP95Ms) {
				ar.MeanP95Ms = metrics.Mean(a.p95)
			}
			ar.ViolationEpochs = a.viol
			ar.Completed, ar.Dropped = a.compl, a.drops
			ar.LCSample = entropy.LCSample{
				Name: s.Name, IdealMs: s.IdealP95Ms,
				MeasuredMs: ar.MeanP95Ms, TargetMs: s.QoSTargetMs,
			}
			if !math.IsNaN(ar.MeanP95Ms) {
				lcRun = append(lcRun, ar.LCSample)
			}
		} else {
			ar.MeanIPC = c.ipc
			if math.IsNaN(ar.MeanIPC) {
				ar.MeanIPC = metrics.Mean(a.ipc)
			}
			ar.BESample = entropy.BESample{Name: s.Name, SoloIPC: s.SoloIPC, MeasuredIPC: ar.MeanIPC}
			if !math.IsNaN(ar.MeanIPC) && ar.MeanIPC > 0 {
				beRun = append(beRun, ar.BESample)
			}
		}
		res.Apps = append(res.Apps, ar)
	}
	if elc, ebe, es, err := sys.Compute(lcRun, beRun); err == nil {
		res.RunELC, res.RunEBE, res.RunES = elc, ebe, es
	}
	if y, err := entropy.Yield(lcRun); err == nil {
		res.Yield = y
	}
}

// SamplesFromWindows converts epoch telemetry into entropy inputs, skipping
// idle applications (no measurement) and treating a starved application's
// lower-bound latency as its measured latency; a starved application with
// no observable lower bound is clamped to a saturated, target-exceeding
// latency so it still counts against E_LC.
func SamplesFromWindows(apps []sched.AppWindow) ([]entropy.LCSample, []entropy.BESample) {
	var lc []entropy.LCSample
	var be []entropy.BESample
	for _, w := range apps {
		if w.Spec.Class == workload.LC {
			if math.IsNaN(w.P95Ms) || w.P95Ms <= 0 {
				if w.QueueLen == 0 && w.Dropped == 0 && w.Completed == 0 {
					continue // idle: nothing offered, nothing to measure
				}
				// Starved with no usable latency observation (e.g. the
				// backlog arrived at the window boundary, so even the
				// oldest-request age is zero): saturate the sample at a
				// target-exceeding lower bound, mirroring the BE zero-IPC
				// clamp below, so the worst interference case raises E_LC
				// instead of vanishing from it.
				w.P95Ms = w.Spec.QoSTargetMs * 1e3
			}
			lc = append(lc, entropy.LCSample{
				Name: w.Spec.Name, IdealMs: w.Spec.IdealP95Ms,
				MeasuredMs: w.P95Ms, TargetMs: w.Spec.QoSTargetMs,
			})
		} else {
			if w.IPC <= 0 {
				// A fully starved BE application has zero measured IPC;
				// clamp to a sliver so E_BE saturates instead of erroring.
				w.IPC = w.Spec.SoloIPC * 1e-3
			}
			be = append(be, entropy.BESample{
				Name: w.Spec.Name, SoloIPC: w.Spec.SoloIPC, MeasuredIPC: w.IPC,
			})
		}
	}
	return lc, be
}

// orderWindows reorders engine windows into spec order (LC first).
func orderWindows(windows []sched.AppWindow, specs []sched.AppSpec) []sched.AppWindow {
	byName := make(map[string]sched.AppWindow, len(windows))
	for _, w := range windows {
		byName[w.Spec.Name] = w
	}
	out := make([]sched.AppWindow, 0, len(specs))
	for _, s := range specs {
		out = append(out, byName[s.Name])
	}
	return out
}
