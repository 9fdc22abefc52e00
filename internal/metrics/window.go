package metrics

// WindowStats summarises one monitoring interval for one application.
type WindowStats struct {
	// P95 and Mean are latency statistics in milliseconds over the window;
	// NaN when no request completed.
	P95, Mean float64
	// Completed is the number of requests that finished in the window.
	Completed int
	// Dropped is the number of requests rejected by load-generator
	// backpressure (finite client connection pools).
	Dropped int
}

// TailStats computes one monitoring interval's statistics from the
// latencies (in milliseconds) of the requests it completed and the count
// it dropped; P95 and Mean are NaN when none completed. The mean is summed
// in observation order first; the p95 then comes from one selection pass,
// which reorders lat in place (its multiset is unchanged, so any later
// percentile over it is unaffected).
func TailStats(lat []float64, dropped int) WindowStats {
	mean := Mean(lat)
	return WindowStats{P95: PercentileInPlace(lat, 0.95), Mean: mean, Completed: len(lat), Dropped: dropped}
}

// WorkWindow accumulates best-effort work (core-milliseconds of effective
// progress) over one monitoring interval to derive IPC.
type WorkWindow struct {
	workMs float64
}

// Add records effective work done during one tick.
func (w *WorkWindow) Add(workMs float64) { w.workMs += workMs }

// Snapshot returns the accumulated work and resets the window.
func (w *WorkWindow) Snapshot() float64 {
	v := w.workMs
	w.workMs = 0
	return v
}
