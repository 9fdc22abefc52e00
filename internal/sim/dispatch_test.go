package sim

import (
	"math"
	"math/rand"
	"testing"

	"ahq/internal/workload"
)

// deriveRates mirrors resolveMemBW's slot-rate precomputation for the
// hand-built contention snapshots below: the dispatchers consume the
// resolver-owned rateIso/rateShared fields, never the raw slowdown.
func (a *appState) deriveRates() {
	a.rateIso = 1 / a.slowdown
	a.rateShared = a.sharedShare / a.slowdown
}

// dispatchApp builds an appState with a randomized contention snapshot and
// request queue, ready to dispatch one tick. Every draw comes from rng, so
// two calls with identically seeded sources produce identical states.
func dispatchApp(rng *rand.Rand, nowMs float64) *appState {
	lc := workload.MustLC("xapian")
	// Up to 12 worker threads, so both dispatchSmall (<= smallSlotCount
	// usable slots) and the heap proper are exercised.
	lc.Threads = 1 + rng.Intn(12)
	a := newAppState(AppConfig{LC: &lc}, 1)
	// Randomize the slot configuration across the interesting shapes:
	// iso-only (shared share zero), shared-only, mixed, and more isolated
	// cores than threads.
	a.isoCores = rng.Intn(lc.Threads + 3)
	a.slowdown = 1 + 3*rng.Float64()
	switch rng.Intn(3) {
	case 0:
		a.sharedShare = 0
	default:
		a.sharedShare = rng.Float64()
	}
	a.deriveRates()
	n := rng.Intn(24)
	for i := 0; i < n; i++ {
		at := nowMs - 3*rng.Float64() // some backlog, some fresh
		a.queue = append(a.queue, request{
			arrivalMs: at,
			remainMs:  0.05 + 2.5*rng.Float64(),
			notBefore: at + 0.4*rng.Float64(),
			user:      -1,
		})
	}
	return a
}

// Queue shapes for TestHeapDispatchMatchesLinear beyond dispatchApp's
// random one.
const (
	shapeRandom = iota
	// shapeInterleaved alternates requests that finish within the tick with
	// ones that cannot, so carries land behind completions and the in-place
	// carry has to move them (and close the gap at the end).
	shapeInterleaved
	// shapeAllCarried holds every request past the tick, so nothing
	// completes and nothing moves.
	shapeAllCarried
)

// shapeQueue rewrites a's queue into the given shape.
func shapeQueue(a *appState, shape int, nowMs float64) {
	for i := range a.queue {
		r := &a.queue[i]
		switch shape {
		case shapeInterleaved:
			r.arrivalMs, r.notBefore = nowMs, nowMs
			r.remainMs = 1e-3
			if i%2 == 1 {
				r.remainMs = 50
			}
		case shapeAllCarried:
			r.notBefore = nowMs + 1.5
		}
	}
}

// TestHeapDispatchMatchesLinear drives the heap dispatcher and the original
// linear scan over randomized queues and slot configurations for several
// consecutive ticks (with fresh arrivals in between) and demands identical
// completion sequences (latency by latency, bit for bit) and identical
// pending queues after every tick. The heap dispatchers consume completed
// requests by advancing qHead, so qHead must advance by exactly the tick's
// completions. The interleaved shape exercises the carry-move path, the
// all-carried shape the path where nothing moves.
func TestHeapDispatchMatchesLinear(t *testing.T) {
	var moved, stayed int
	for trial := 0; trial < 2000; trial++ {
		seed := int64(trial + 1)
		nowMs := float64(trial % 7)
		shape := trial % 3
		h := dispatchApp(rand.New(rand.NewSource(seed)), nowMs)
		l := dispatchApp(rand.New(rand.NewSource(seed)), nowMs)
		shapeQueue(h, shape, nowMs)
		shapeQueue(l, shape, nowMs)
		arrivals := rand.New(rand.NewSource(-seed))
		for tick := 0; tick < 4; tick++ {
			now := nowMs + float64(tick)
			tickEnd := now + 1
			head, done, pending := h.qHead, len(l.lat), l.pendingLen()

			h.dispatchHeap(now, tickEnd)
			l.dispatchLinear(now, tickEnd)

			if len(h.lat) != len(l.lat) {
				t.Fatalf("trial %d tick %d: heap completed %d requests, linear %d",
					trial, tick, len(h.lat), len(l.lat))
			}
			for i := range h.lat {
				if h.lat[i] != l.lat[i] {
					t.Fatalf("trial %d tick %d: completion %d latency %v (heap) != %v (linear)",
						trial, tick, i, h.lat[i], l.lat[i])
				}
			}
			hq, lq := h.pending(), l.pending()
			if len(hq) != len(lq) {
				t.Fatalf("trial %d tick %d: heap kept %d requests, linear kept %d",
					trial, tick, len(hq), len(lq))
			}
			for i := range hq {
				if hq[i] != lq[i] {
					t.Fatalf("trial %d tick %d: kept request %d differs: %+v (heap) != %+v (linear)",
						trial, tick, i, hq[i], lq[i])
				}
			}
			completed := len(l.lat) - done
			if h.qHead != head+completed {
				t.Fatalf("trial %d tick %d: qHead %d, want %d + %d completions",
					trial, tick, h.qHead, head, completed)
			}
			if tick == 0 {
				switch {
				case shape == shapeInterleaved && completed > 0 && len(lq) > 0:
					moved++
				case shape == shapeAllCarried:
					if completed != 0 || len(lq) != pending {
						t.Fatalf("trial %d: all-carried queue completed %d of %d", trial, completed, pending)
					}
					stayed++
				}
			}
			// Fresh arrivals behind the carried requests.
			for n := arrivals.Intn(4); n > 0; n-- {
				r := request{
					arrivalMs: tickEnd - arrivals.Float64(),
					remainMs:  0.05 + 2.5*arrivals.Float64(),
					user:      -1,
				}
				r.notBefore = r.arrivalMs + 0.4*arrivals.Float64()
				h.queue = append(h.queue, r)
				l.queue = append(l.queue, r)
			}
		}
	}
	if moved < 100 || stayed < 100 {
		t.Fatalf("shape coverage too thin: %d interleaved and %d all-carried trials", moved, stayed)
	}
}

// TestHeapDispatchClosedLoopReschedules pins the closed-loop path through
// the heap dispatcher: completions must consume identical rng draws and
// produce identical next-issue times in both implementations.
func TestHeapDispatchClosedLoopReschedules(t *testing.T) {
	build := func() *appState {
		lc := workload.MustLC("xapian")
		a := newAppState(AppConfig{LC: &lc, ClosedLoopUsers: 6}, 42)
		a.isoCores = 2
		a.slowdown = 1.5
		a.sharedShare = 0.6
		a.deriveRates()
		a.nextIssue = make([]float64, 6)
		for u := 0; u < 6; u++ {
			a.queue = append(a.queue, request{
				arrivalMs: float64(u) * 0.1,
				remainMs:  0.3 + 0.2*float64(u),
				user:      u,
			})
			a.nextIssue[u] = -1
		}
		return a
	}
	h, l := build(), build()
	h.dispatchHeap(0, 1)
	l.dispatchLinear(0, 1)
	for u := range h.nextIssue {
		if h.nextIssue[u] != l.nextIssue[u] {
			t.Fatalf("user %d: next issue %v (heap) != %v (linear)",
				u, h.nextIssue[u], l.nextIssue[u])
		}
	}
}

// TestOldestAgeMsScansWholeQueue is the regression test for the starved-app
// latency bound: same-tick arrivals are appended in draw order, so the head
// of the queue is not necessarily the oldest request.
func TestOldestAgeMsScansWholeQueue(t *testing.T) {
	lc := workload.MustLC("xapian")
	a := newAppState(AppConfig{LC: &lc}, 1)
	a.queue = []request{
		{arrivalMs: 10.7},
		{arrivalMs: 10.2}, // older than the head
		{arrivalMs: 10.9},
	}
	if got, want := a.oldestAgeMs(20), 20-10.2; got != want {
		t.Errorf("oldestAgeMs = %v, want %v (the queue minimum, not the head)", got, want)
	}
	// The head index must not hide dispatched entries' successors.
	a.qHead = 1
	if got, want := a.oldestAgeMs(20), 20-10.2; got != want {
		t.Errorf("oldestAgeMs with qHead=1 = %v, want %v", got, want)
	}
	a.queue = a.queue[:0]
	a.qHead = 0
	if got := a.oldestAgeMs(20); !math.IsNaN(got) {
		t.Errorf("oldestAgeMs on empty queue = %v, want NaN", got)
	}
}

// TestQueueHeadCompaction pins the head-indexed queue's invariants: pending
// order survives dispatch-and-refill cycles and the backing array is
// re-normalised once the dispatched prefix dominates.
func TestQueueHeadCompaction(t *testing.T) {
	lc := workload.MustLC("xapian")
	lc.ServiceSigma = 0
	lc.Terms = nil
	a := newAppState(AppConfig{LC: &lc}, 1)
	a.isoCores = 1
	a.slowdown = 1
	a.deriveRates()
	// 8 requests of 1 ms each on one slot: each tick completes exactly one.
	for i := 0; i < 8; i++ {
		a.queue = append(a.queue, request{arrivalMs: 0, remainMs: 1, user: -1})
	}
	for tick := 0; tick < 8; tick++ {
		now := float64(tick)
		a.arrive(now, 1) // no load trace: only runs the compaction step
		wantLen := 8 - tick
		if got := a.pendingLen(); got != wantLen {
			t.Fatalf("tick %d: pendingLen = %d, want %d", tick, got, wantLen)
		}
		if 2*a.qHead >= len(a.queue) && a.qHead != 0 {
			t.Fatalf("tick %d: compaction missed: qHead=%d len=%d", tick, a.qHead, len(a.queue))
		}
		a.dispatchHeap(now, now+1)
	}
	if a.pendingLen() != 0 {
		t.Fatalf("queue not drained: %d pending", a.pendingLen())
	}
}

// TestHeapDispatchNotBeforeStraddlesTick pins the boundary the dispatch
// delay creates: requests whose earliest-dispatch time lands exactly on,
// one ulp before, or one ulp after a tick boundary must be dispatched (or
// held) identically by the heap and linear dispatchers — across the tick
// in which they become eligible, not just within one tick.
func TestHeapDispatchNotBeforeStraddlesTick(t *testing.T) {
	for trial := 0; trial < 500; trial++ {
		seed := int64(trial + 10_001)
		build := func() *appState {
			rng := rand.New(rand.NewSource(seed))
			a := dispatchApp(rng, 0)
			// Rewrite the queue so every notBefore hugs a tick boundary:
			// exactly at tick 1, one ulp either side, exactly at the tick
			// start, and far beyond the horizon.
			boundary := 1.0
			for i := range a.queue {
				req := &a.queue[i]
				switch i % 5 {
				case 0:
					req.notBefore = boundary
				case 1:
					req.notBefore = math.Nextafter(boundary, 0)
				case 2:
					req.notBefore = math.Nextafter(boundary, 2)
				case 3:
					req.notBefore = 0
				default:
					req.notBefore = 2.5
				}
			}
			return a
		}
		h, l := build(), build()
		// Two consecutive ticks, so the boundary cases transition from
		// "held" to "eligible" between dispatch calls.
		h.dispatchHeap(0, 1)
		h.dispatchHeap(1, 2)
		l.dispatchLinear(0, 1)
		l.dispatchLinear(1, 2)

		if len(h.lat) != len(l.lat) {
			t.Fatalf("trial %d: heap completed %d, linear %d", trial, len(h.lat), len(l.lat))
		}
		for i := range h.lat {
			if h.lat[i] != l.lat[i] {
				t.Fatalf("trial %d: completion %d latency %v (heap) != %v (linear)",
					trial, i, h.lat[i], l.lat[i])
			}
		}
		hq, lq := h.pending(), l.pending()
		if len(hq) != len(lq) {
			t.Fatalf("trial %d: heap kept %d, linear kept %d", trial, len(hq), len(lq))
		}
		for i := range hq {
			if hq[i] != lq[i] {
				t.Fatalf("trial %d: kept %d differs: %+v vs %+v", trial, i, hq[i], lq[i])
			}
		}
	}
}

// TestSmallDispatchTieAtNowMs pins dispatchSmall's fallback from the
// fresh-slot cursor to the scan. The first request is so short that its
// completion on slot 0 rounds back to nowMs, so slot 0 ties the unserved
// slots and, as the lowest index, must take the next request too; slot 1,
// which the cursor would pick, runs at the slower shared rate.
func TestSmallDispatchTieAtNowMs(t *testing.T) {
	const nowMs = 1 << 20 // one ulp is 2⁻³², far above the first request's run time
	build := func() *appState {
		lc := workload.MustLC("xapian")
		lc.Threads = 4
		a := newAppState(AppConfig{LC: &lc}, 1)
		a.isoCores = 1
		a.slowdown = 1.25
		a.sharedShare = 0.5
		a.deriveRates()
		for _, r := range []struct{ ago, work float64 }{{2, 1e-12}, {2, 0.3}, {1.5, 0.2}, {1, 0.4}, {0.5, 0.1}} {
			a.queue = append(a.queue, request{arrivalMs: nowMs - r.ago, remainMs: r.work, notBefore: nowMs - r.ago, user: -1})
		}
		return a
	}
	s, l := build(), build()
	if done := nowMs + s.queue[0].remainMs/s.rateIso; done > nowMs {
		t.Fatalf("the first completion lands at %v, not on nowMs: no tie to test", done)
	}
	s.dispatchHeap(nowMs, nowMs+1)
	l.dispatchLinear(nowMs, nowMs+1)
	if len(s.lat) != len(l.lat) || len(s.lat) < 3 {
		t.Fatalf("dispatchSmall completed %d requests, linear %d", len(s.lat), len(l.lat))
	}
	for i := range s.lat {
		if s.lat[i] != l.lat[i] {
			t.Fatalf("completion %d latency %v (small) != %v (linear)", i, s.lat[i], l.lat[i])
		}
	}
	if want := nowMs + 0.3/s.rateIso - (nowMs - 2); l.lat[1] != want {
		t.Fatalf("second request's latency %v, want %v from the isolated slot 0", l.lat[1], want)
	}
	sq, lq := s.pending(), l.pending()
	if len(sq) != len(lq) {
		t.Fatalf("dispatchSmall kept %d requests, linear kept %d", len(sq), len(lq))
	}
	for i := range sq {
		if sq[i] != lq[i] {
			t.Fatalf("kept request %d differs: %+v (small) != %+v (linear)", i, sq[i], lq[i])
		}
	}
}
