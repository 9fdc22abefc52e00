package sim

import (
	"math"
	"math/rand"
	"sync"

	"ahq/internal/metrics"
	"ahq/internal/trace"
	"ahq/internal/workload"
)

// AppConfig attaches a workload model to the simulated node. Exactly one of
// LC or BE must be set; Load drives an LC application's offered load and is
// ignored for BE applications.
//
// Setting ClosedLoopUsers switches the LC application from the default
// open-loop Poisson source to Tailbench's closed-loop mode: that many
// emulated users each issue one request, wait for its completion, think
// for an exponential time with mean ThinkTimeMs, and repeat. Load is
// ignored in closed-loop mode.
type AppConfig struct {
	LC   *workload.LCApp
	BE   *workload.BEApp
	Load trace.Load
	// ClosedLoopUsers enables closed-loop load with that many users.
	ClosedLoopUsers int
	// ThinkTimeMs is the closed-loop mean think time (0 means 10x the
	// service mean, a moderate per-user duty cycle).
	ThinkTimeMs float64
}

// Name returns the configured application's name.
func (c AppConfig) Name() string {
	if c.LC != nil {
		return c.LC.Name
	}
	if c.BE != nil {
		return c.BE.Name
	}
	return ""
}

// Class returns the configured application's class.
func (c AppConfig) Class() workload.Class {
	if c.LC != nil {
		return workload.LC
	}
	return workload.BE
}

// request is one in-flight LC request.
type request struct {
	arrivalMs float64
	remainMs  float64 // outstanding service demand at solo speed
	notBefore float64 // earliest dispatch time (CFS wakeup delay)
	user      int     // closed-loop user index, or -1 for open loop
}

// appState is the runtime state of one application inside the engine.
type appState struct {
	cfg   AppConfig
	name  string
	class workload.Class
	rng   *stream

	// LC state. The waiting requests are queue[qHead:]: dispatch consumes
	// from the front by advancing qHead instead of compacting the slice, so
	// a tick that completes a few head requests of a deep backlog does not
	// memmove the whole tail (see dispatchHeap). arrive re-normalises the
	// backing array once the dispatched prefix dominates it, which keeps the
	// memory bounded at amortised O(1) moves per request.
	queue   []request
	qHead   int
	offered int // arrivals this window, including drops
	dropped int // arrivals this window rejected by the client queue cap
	// lat holds the latency of every request completed since the earliest
	// live run mark (Engine.MarkRun), in completion order; the open
	// monitoring window is lat[winStart:]. One buffer serves both the
	// per-window tail (snapshot) and the run-level p95 (RunP95).
	lat      []float64
	winStart int
	// nextIssue holds each closed-loop user's next request time (empty
	// in open-loop mode).
	nextIssue []float64

	// BE state.
	workWin metrics.WorkWindow

	// runs holds this application's share of every run mark, indexed by
	// mark (Engine.MarkRun): where its completions start in lat and the
	// BE work and time accumulated since.
	runs []appRun

	// Per-tick contention scratch, recomputed by the engine.
	activeThreads  int
	isoCores       int
	isoShare       float64 // per-thread share on isolated cores (0 or 1)
	sharedThreads  int
	sharedShare    float64 // per-thread share in shared regions
	sharedCrowded  bool    // region timeshared at all
	sharedPolluted bool    // region timeshared with foreign threads
	totalCoreShare float64 // sum of all thread shares this tick
	isoWays        float64
	effWays        float64
	slowdown       float64
	dispatchDelay  float64 // CFS wakeup delay applied to new arrivals
	// rateIso and rateShared are the dispatch slot rates 1/slowdown and
	// sharedShare/slowdown, divided once per solve instead of once per
	// dispatch call (the divisions are the same ones dispatch used to do,
	// so the rates are bit-identical).
	rateIso    float64
	rateShared float64

	// Warm-up tracking after repartitioning.
	lastWays       float64
	warmupUntilMs  float64
	haveAllocation bool

	// refMiss and cacheDenom are tick-invariant slowdown inputs — the miss
	// ratio at the reference way count and the cache-factor denominator it
	// induces — precomputed at engine construction (see resolveMemBW).
	refMiss    float64
	cacheDenom float64
	// svcMu is the LC service distribution's log-normal mu, precomputed so
	// sampleService does not pay a math.Log per draw.
	svcMu float64

	// Reusable per-tick service-slot scratch (see dispatch.go).
	slotClock []float64
	slotHeap  []int32

	// pLambdaBits/pExpNegLambda cache exp(-lambda) for the Poisson arrival
	// draw across ticks (see poissonDraw).
	pLambdaBits   uint64
	pExpNegLambda float64
}

// appRun is one application's state under one run mark.
type appRun struct {
	// off indexes the first completion since the mark in lat (LC).
	off int
	// work and ms accumulate BE work and elapsed time since the mark.
	work, ms float64
}

// pending returns the requests waiting for service, oldest dispatch
// position first.
func (a *appState) pending() []request { return a.queue[a.qHead:] }

// pendingLen returns how many requests are waiting for service.
func (a *appState) pendingLen() int { return len(a.queue) - a.qHead }

// appBufs are the per-application buffers an engine returns on Release
// for the next engine to reuse: the random stream (whose 4.9 KB register
// a fresh one would allocate) and the latency and request buffers grown
// over a run.
type appBufs struct {
	rng   *stream
	lat   []float64
	queue []request
}

// appBufPool recycles appBufs across engines. Only capacity is reused:
// newAppState re-seeds the stream and empties both slices, so an engine
// built from pooled buffers is indistinguishable from a fresh one.
var appBufPool sync.Pool

func newAppState(cfg AppConfig, seed int64) *appState {
	a := &appState{
		cfg:   cfg,
		name:  cfg.Name(),
		class: cfg.Class(),
	}
	if b, ok := appBufPool.Get().(*appBufs); ok {
		// Seed resets the stream to exactly the state
		// rand.NewSource(seed) starts in.
		b.rng.Seed(seed)
		a.rng, a.lat, a.queue = b.rng, b.lat[:0], b.queue[:0]
	} else {
		a.rng = newStream(seed)
	}
	if cfg.LC != nil {
		a.svcMu = cfg.LC.ServiceMu()
	}
	return a
}

// threads returns the application's worker/compute thread count.
func (a *appState) threads() int {
	if a.cfg.LC != nil {
		return a.cfg.LC.Threads
	}
	return a.cfg.BE.Threads
}

// cache returns the application's miss-ratio curve.
func (a *appState) cache() workload.CacheProfile {
	if a.cfg.LC != nil {
		return a.cfg.LC.Cache
	}
	return a.cfg.BE.Cache
}

// sens returns the application's sensitivity parameters.
func (a *appState) sens() workload.Sensitivity {
	if a.cfg.LC != nil {
		return a.cfg.LC.Sens
	}
	return a.cfg.BE.Sens
}

// runnableThreads returns how many threads want a core this tick.
func (a *appState) runnableThreads() int {
	if a.class == workload.BE {
		return a.threads()
	}
	n := a.pendingLen()
	if t := a.threads(); n > t {
		n = t
	}
	return n
}

// sampleService draws one request's service demand (solo-speed core-ms):
// a log-normal base multiplied by the Zipfian content factor when the
// application has a term mix.
func (a *appState) sampleService() float64 {
	lc := a.cfg.LC
	demand := lc.ServiceMeanMs
	if lc.ServiceSigma > 0 {
		demand = math.Exp(a.svcMu + lc.ServiceSigma*a.rng.NormFloat64())
	}
	if lc.Terms != nil {
		demand *= lc.Terms.Sample(a.rng.Float64())
	}
	return demand
}

// thinkMean returns the closed-loop mean think time.
func (a *appState) thinkMean() float64 {
	if a.cfg.ThinkTimeMs > 0 {
		return a.cfg.ThinkTimeMs
	}
	return 10 * a.cfg.LC.ServiceMeanMs
}

// arrive admits arrivals for the tick [now, now+dt). In open-loop mode the
// count is Poisson with the trace's current rate, and arrivals beyond the
// client queue cap are dropped (finite connection pool backpressure). In
// closed-loop mode each emulated user whose think time has elapsed issues
// its next request.
func (a *appState) arrive(nowMs, dtMs float64) {
	lc := a.cfg.LC
	if lc == nil {
		return
	}
	if a.qHead > 0 && 2*a.qHead >= len(a.queue) {
		// The dispatched prefix dominates the backing array; slide the
		// waiting requests back to the front before appending more.
		n := copy(a.queue, a.queue[a.qHead:])
		a.queue = a.queue[:n]
		a.qHead = 0
	}
	if a.cfg.ClosedLoopUsers > 0 {
		if a.nextIssue == nil {
			//ahqlint:allow hotpath first-tick-only: seeds the closed-loop users once per run
			a.nextIssue = make([]float64, a.cfg.ClosedLoopUsers)
			for u := range a.nextIssue {
				// Stagger the first round across one think period.
				a.nextIssue[u] = a.rng.Float64() * a.thinkMean()
			}
		}
		for u, t := range a.nextIssue {
			if t < nowMs+dtMs && t >= 0 {
				a.offered++
				at := t
				if at < nowMs {
					at = nowMs
				}
				//ahqlint:allow hotpath amortized: the queue's backing array is reused across ticks (qHead compaction)
				a.queue = append(a.queue, request{
					arrivalMs: at,
					remainMs:  a.sampleService(),
					notBefore: at + a.dispatchDelay*a.rng.Float64(),
					user:      u,
				})
				a.nextIssue[u] = -1 // outstanding; rescheduled on completion
			}
		}
		return
	}
	if a.cfg.Load == nil {
		return
	}
	frac := a.cfg.Load.At(nowMs)
	if frac <= 0 {
		return
	}
	lambda := frac * lc.MaxLoadQPS / 1000 * dtMs // expected arrivals this tick
	n := a.poissonDraw(lambda)
	if n == 0 {
		return
	}
	a.offered += n
	for i := 0; i < n; i++ {
		if a.pendingLen() >= lc.ClientQueueCap {
			a.dropped++
			continue
		}
		at := nowMs + a.rng.Float64()*dtMs
		//ahqlint:allow hotpath amortized: the queue's backing array is reused across ticks (qHead compaction)
		a.queue = append(a.queue, request{
			arrivalMs: at,
			remainMs:  a.sampleService(),
			notBefore: at + a.dispatchDelay*a.rng.Float64(),
			user:      -1,
		})
	}
}

// oldestAgeMs returns the age of the oldest waiting request, or NaN if
// idle. The queue is not sorted by arrival time — same-tick arrivals are
// appended in draw order (open loop) or user order (closed loop) — so the
// head of the queue is not necessarily the oldest; scan for the minimum.
func (a *appState) oldestAgeMs(nowMs float64) float64 {
	q := a.pending()
	if len(q) == 0 {
		return math.NaN()
	}
	oldest := q[0].arrivalMs
	for _, r := range q[1:] {
		if r.arrivalMs < oldest {
			oldest = r.arrivalMs
		}
	}
	return nowMs - oldest
}

// poissonDraw draws a Poisson variate from the application's arrival
// stream. Tick-level means are small (a few arrivals per ms at most), so
// Knuth's method with a normal fallback for large means is plenty.
// exp(-lambda) is cached across ticks, keyed on lambda's exact bit
// pattern, because under a constant or slowly varying load trace lambda
// repeats every tick and that exponential is the draw's only
// transcendental. Any real change in lambda recomputes, so the draw is
// bit-identical to the uncached form.
func (a *appState) poissonDraw(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		return poissonNormal(a.rng.norm, lambda)
	}
	if bits := math.Float64bits(lambda); bits != a.pLambdaBits {
		a.pLambdaBits = bits
		a.pExpNegLambda = math.Exp(-lambda)
	}
	return poissonKnuth(a.rng, a.pExpNegLambda)
}

// poissonNormal is the large-mean normal approximation with continuity
// correction.
func poissonNormal(rng *rand.Rand, lambda float64) int {
	n := int(math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64()))
	if n < 0 {
		return 0
	}
	return n
}

// poissonKnuth is Knuth's multiplication method given l = exp(-lambda).
func poissonKnuth(rng *stream, l float64) int {
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
