package sim

// LC request dispatch. Each of an application's worker threads is a
// sequential service "slot" with its own wall clock; dispatching a request
// means finding the slot that frees up earliest (lowest clock, lowest index
// on ties). The original implementation rescanned every slot per request —
// O(queue × slots); dispatchHeap keeps the slots in an index-tie-broken
// binary min-heap over their clocks instead, so each dispatch costs
// O(log slots). Two structural facts keep the heap cheap to maintain:
//
//   - Slot rates take only two values — isolated slots run at 1/slowdown,
//     shared-region slots at sharedShare/slowdown — and the isolated slots
//     form a prefix of the slot array. When the shared rate is zero the
//     usable slots are exactly that prefix, so "slots with a usable rate"
//     is always slots [0, usable) and no per-slot rate array is needed.
//   - All clocks start the tick equal (at nowMs), so the identity
//     permutation [0, 1, …] is already a valid heap; only the slot that
//     just served a request ever moves, and only downward.
//
// Slot arrays of at most smallSlotCount usable slots — every catalog
// application's — go through dispatchSmall instead: a scan over a stack
// array, skipped while some slot has not served yet this tick.
//
// dispatchLinear preserves the original scan verbatim as the reference
// implementation; TestHeapDispatchMatchesLinear drives both over
// randomized queues and slot configurations and demands identical
// completion sequences, clocks, and leftover queues.

// dispatchHeap serves a's queued requests on its slots for the tick
// [nowMs, tickEnd), completing what fits and carrying the rest.
//
//ahq:hotpath
func (a *appState) dispatchHeap(nowMs, tickEnd float64) {
	nSlots := a.threads()
	isoSlots := a.isoCores
	if isoSlots > nSlots {
		isoSlots = nSlots
	}
	rIso := a.rateIso
	rShared := a.rateShared
	usable := nSlots
	if rShared <= 0 {
		usable = isoSlots
	}
	if usable == 0 {
		// No slot can run; every request waits as-is.
		return
	}
	if usable <= smallSlotCount {
		a.dispatchSmall(nowMs, tickEnd, usable, isoSlots, rIso, rShared)
		return
	}
	if cap(a.slotClock) < usable {
		//ahqlint:allow hotpath capacity-guarded: the slot arrays grow to the widest slot count once, then are reused
		a.slotClock = make([]float64, usable)
		a.slotHeap = make([]int32, usable) //ahqlint:allow hotpath capacity-guarded: the slot arrays grow to the widest slot count once, then are reused
	}
	clocks := a.slotClock[:usable]
	h := a.slotHeap[:usable]
	for i := range clocks {
		clocks[i] = nowMs
		h[i] = int32(i)
	}
	q := a.queue
	w := a.qHead // carry cursor: carried requests are q[a.qHead:w]
	qi := a.qHead
	for ; qi < len(q); qi++ {
		req := &q[qi]
		top := h[0]
		if clocks[top] >= tickEnd {
			// Every slot is booked past the tick (start can only grow with
			// the clock), so every remaining request waits: leave the tail
			// [qi, len(q)) in place instead of walking it.
			break
		}
		start := clocks[top]
		if req.arrivalMs > start {
			start = req.arrivalMs
		}
		if req.notBefore > start {
			start = req.notBefore
		}
		if start >= tickEnd {
			// This request cannot start before the tick ends even on the
			// earliest slot; wait it out.
			w = carry(q, w, qi)
			continue
		}
		rate := rIso
		if int(top) >= isoSlots {
			rate = rShared
		}
		can := (tickEnd - start) * rate
		if req.remainMs <= can {
			done := start + req.remainMs/rate
			clocks[top] = done
			a.complete(req, done)
		} else {
			req.remainMs -= can
			clocks[top] = tickEnd
			w = carry(q, w, qi)
		}
		siftDown(h, clocks)
	}
	a.closeGap(w, qi)
}

// carry keeps q[qi] pending: it moves the request down to the carry cursor
// w (a no-op until a completion has opened a gap behind qi) and returns the
// advanced cursor.
func carry(q []request, w, qi int) int {
	if w != qi {
		q[w] = q[qi]
	}
	return w + 1
}

// closeGap finishes a dispatch pass that stopped at qi with the carried
// requests in queue[qHead:w]: the pending queue becomes those requests
// followed by the untouched tail queue[qi:]. The carried requests move up
// against the tail with one overlapping copy — needed only when a
// completion opened a gap (w < qi) — and qHead advances past the
// completions, so the tail itself never moves.
func (a *appState) closeGap(w, qi int) {
	if w == qi {
		return // nothing completed: the pending queue is already contiguous
	}
	newHead := qi - (w - a.qHead)
	copy(a.queue[newHead:qi], a.queue[a.qHead:w])
	a.qHead = newHead
}

// smallSlotCount is the widest slot array served by dispatchSmall's linear
// scan. Catalog applications run 4 worker threads, so virtually every
// dispatch lands here; at these widths scanning a handful of clocks held in
// a stack array beats maintaining the heap (no index array, no siftDown
// calls, no per-tick heap initialisation).
const smallSlotCount = 8

// dispatchSmall is dispatchHeap's fast path for small slot counts: the
// earliest-slot-lowest-index selection is a strict < scan over the clocks,
// which picks exactly the slot the heap's (clock, index) order would. All
// arithmetic on the chosen slot is identical, so completions, clocks and
// leftover queues match the heap and linear paths bit for bit.
//
// Most requests skip the scan. Every slot starts the tick at nowMs and
// serving a request leaves a slot's clock at or after nowMs, so while some
// slot has not served yet this tick the scan can only return the lowest
// such slot: fresh is that slot, and slots serve in index order. The one
// exception is a served slot whose clock stayed at nowMs (a completion
// whose remainMs/rate rounds away against nowMs): it ties the fresh slots
// and, having the lower index, wins the scan, so from then on the tick
// scans. A request that cannot start before tickEnd touches no slot.
func (a *appState) dispatchSmall(nowMs, tickEnd float64, usable, isoSlots int, rIso, rShared float64) {
	var clocks [smallSlotCount]float64 // slot i's clock, once it has served
	q := a.queue
	w := a.qHead // carry cursor, as in dispatchHeap
	qi := a.qHead
	fresh := 0 // slots [fresh, usable) have not served; usable means scan
	for ; qi < len(q); qi++ {
		top, c := fresh, nowMs
		if fresh == usable {
			top, c = 0, clocks[0]
			for i := 1; i < usable; i++ {
				if clocks[i] < c {
					top, c = i, clocks[i]
				}
			}
			if c >= tickEnd {
				// Every slot is booked past the tick; the tail [qi, len(q))
				// waits in place.
				break
			}
		}
		req := &q[qi]
		start := c
		if req.arrivalMs > start {
			start = req.arrivalMs
		}
		if req.notBefore > start {
			start = req.notBefore
		}
		if start >= tickEnd {
			w = carry(q, w, qi)
			continue
		}
		rate := rIso
		if top >= isoSlots {
			rate = rShared
		}
		can := (tickEnd - start) * rate
		if req.remainMs <= can {
			done := start + req.remainMs/rate
			clocks[top] = done
			a.complete(req, done)
		} else {
			req.remainMs -= can
			clocks[top] = tickEnd
			w = carry(q, w, qi)
		}
		if top == fresh {
			fresh++
			if clocks[top] <= nowMs {
				// A tie at nowMs: scan from here on, with the unserved
				// slots' clocks filled in.
				for ; fresh < usable; fresh++ {
					clocks[fresh] = nowMs
				}
			}
		}
	}
	a.closeGap(w, qi)
}

// siftDown restores the heap property after the root slot's clock grew.
// Ordering is (clock, slot index) lexicographic, expressed with < only so
// equal clocks fall through to the index comparison.
func siftDown(h []int32, clocks []float64) {
	i := 0
	n := len(h)
	for {
		s := i
		if l := 2*i + 1; l < n && slotLess(h[l], h[s], clocks) {
			s = l
		}
		if r := 2*i + 2; r < n && slotLess(h[r], h[s], clocks) {
			s = r
		}
		if s == i {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

// slotLess orders slots by clock, breaking ties toward the lower index —
// exactly the choice the linear scan's strict < comparison made.
func slotLess(x, y int32, clocks []float64) bool {
	if clocks[x] < clocks[y] {
		return true
	}
	if clocks[y] < clocks[x] {
		return false
	}
	return x < y
}

// complete records one finished request: latency bookkeeping plus the
// closed-loop user's next-issue reschedule.
func (a *appState) complete(req *request, done float64) {
	//ahqlint:allow hotpath amortized: lat grows toward the run length once, then is reused (and pooled across engines by Release)
	a.lat = append(a.lat, done-req.arrivalMs)
	if req.user >= 0 && req.user < len(a.nextIssue) {
		// Closed loop: the user thinks, then reissues.
		a.nextIssue[req.user] = done + a.rng.ExpFloat64()*a.thinkMean()
	}
}

// dispatchLinear is the pre-heap dispatcher, kept verbatim as the reference
// for the differential test: for each request, rescan every slot for the
// earliest one with a usable rate.
//
//ahqlint:allow unused the reference TestHeapDispatchMatchesLinear compares the heap and small dispatchers against
func (a *appState) dispatchLinear(nowMs, tickEnd float64) {
	nSlots := a.threads()
	clocks := make([]float64, nSlots)
	rates := make([]float64, nSlots)
	isoSlots := a.isoCores
	if isoSlots > nSlots {
		isoSlots = nSlots
	}
	for i := 0; i < nSlots; i++ {
		clocks[i] = nowMs
		speed := a.sharedShare
		if i < isoSlots {
			speed = 1
		}
		rates[i] = speed / a.slowdown // work per wall-clock ms
	}
	q := a.pending()
	kept := q[:0]
	for _, req := range q {
		// Earliest-available slot with a usable rate.
		slot := -1
		for i := 0; i < nSlots; i++ {
			if rates[i] <= 0 {
				continue
			}
			if slot == -1 || clocks[i] < clocks[slot] {
				slot = i
			}
		}
		if slot == -1 {
			kept = append(kept, req)
			continue
		}
		start := clocks[slot]
		if req.arrivalMs > start {
			start = req.arrivalMs
		}
		if req.notBefore > start {
			start = req.notBefore
		}
		if start >= tickEnd {
			kept = append(kept, req)
			continue
		}
		can := (tickEnd - start) * rates[slot]
		if req.remainMs <= can {
			done := start + req.remainMs/rates[slot]
			clocks[slot] = done
			a.complete(&req, done)
			continue
		}
		req.remainMs -= can
		clocks[slot] = tickEnd
		kept = append(kept, req)
	}
	a.queue = a.queue[:a.qHead+len(kept)]
}
