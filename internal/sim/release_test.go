package sim

import (
	"math"
	"testing"

	"ahq/internal/machine"
	"ahq/internal/sched"
	"ahq/internal/trace"
	"ahq/internal/workload"
)

// reuseApps covers every buffer owner: an open-loop LC application (lat
// and queue), a closed-loop one (lat, queue and think-time draws) and a BE
// application (random source only).
func reuseApps(load float64) []AppConfig {
	x, m := workload.MustLC("xapian"), workload.MustLC("moses")
	b := workload.MustBE("stream")
	return []AppConfig{
		{LC: &x, Load: trace.Constant(load)},
		{LC: &m, ClosedLoopUsers: 6},
		{BE: &b},
	}
}

// reuseRecord is everything a caller can read off an engine during the
// reuseScript, as raw bits so NaNs compare equal.
type reuseRecord struct {
	windows      [][]sched.AppWindow
	p95, ipc     []uint64
	hits, solves uint64
}

func bits(v float64) uint64 { return math.Float64bits(v) }

// reuseScript drives an engine through warm-up, a run mark, a few
// bare Steps (an open window), RunP95 inside that open window when midP95
// is set, and measured windows with RunP95 between them.
func reuseScript(t *testing.T, e *Engine, midP95 bool) reuseRecord {
	t.Helper()
	var rec reuseRecord
	names := e.AppNames()
	window := func() {
		w := e.RunWindow(500)
		rec.windows = append(rec.windows, append([]sched.AppWindow(nil), w...))
	}
	for i := 0; i < 3; i++ {
		window()
	}
	mark := e.MarkRun()
	for i := 0; i < 37; i++ {
		e.Step()
	}
	if midP95 {
		for _, n := range names {
			rec.p95 = append(rec.p95, bits(e.RunP95(n, mark)))
		}
	}
	for i := 0; i < 5; i++ {
		window()
		for _, n := range names {
			rec.p95 = append(rec.p95, bits(e.RunP95(n, mark)))
		}
	}
	alloc := machine.AllShared(e.Spec(), machine.LCPriority, names)
	if err := e.SetAllocation(alloc); err != nil {
		t.Fatal(err)
	}
	window()
	for _, n := range names {
		rec.p95 = append(rec.p95, bits(e.RunP95(n, mark)))
		rec.ipc = append(rec.ipc, bits(e.RunIPC(n, mark)))
	}
	rec.hits, rec.solves = e.SolveStats()
	return rec
}

func newReuseEngine(t *testing.T, seed int64, load float64) *Engine {
	t.Helper()
	e, err := New(Config{Spec: machine.DefaultSpec(), Seed: seed, Apps: reuseApps(load)})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func sameWindows(a, b [][]sched.AppWindow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if bits(x.P95Ms) != bits(y.P95Ms) || bits(x.MeanMs) != bits(y.MeanMs) ||
				x.Completed != y.Completed || x.Dropped != y.Dropped || x.QueueLen != y.QueueLen ||
				bits(x.OfferedQPS) != bits(y.OfferedQPS) || bits(x.IPC) != bits(y.IPC) || x.Spec != y.Spec {
				return false
			}
		}
	}
	return true
}

func sameRecords(a, b reuseRecord) bool {
	return sameWindows(a.windows, b.windows) && a.hits == b.hits && a.solves == b.solves &&
		equalBits(a.p95, b.p95) && equalBits(a.ipc, b.ipc)
}

// TestReleasedBuffersReproduceFreshEngine pins Release's contract: an
// engine built from buffers another engine released — a different seed and
// load, so its random sources were advanced and its buffers hold stale
// requests and latencies — behaves bit for bit like one built from fresh
// allocations, in every window, RunP95, RunIPC and solve counter.
func TestReleasedBuffersReproduceFreshEngine(t *testing.T) {
	want := reuseScript(t, newReuseEngine(t, 7, 0.6), true)
	reused := 0
	for attempt := 0; attempt < 10; attempt++ {
		dirty := newReuseEngine(t, int64(100+attempt), 0.95)
		reuseScript(t, dirty, false)
		released := map[*stream]bool{}
		for _, a := range dirty.apps {
			released[a.rng] = true
		}
		dirty.Release()

		e := newReuseEngine(t, 7, 0.6)
		for _, a := range e.apps {
			if released[a.rng] {
				reused++
			}
		}
		if got := reuseScript(t, e, true); !sameRecords(got, want) {
			t.Fatalf("attempt %d: engine on released buffers diverged from a fresh engine", attempt)
		}
		e.Release()
	}
	// sync.Pool may drop any one Put (it does so on purpose under the race
	// detector), but not all of them.
	if reused == 0 {
		t.Fatal("no engine ever drew a released buffer; the pool path went untested")
	}
}

// TestRunP95MidWindowLeavesWindowIntact: RunP95 while a window is open
// must not reorder that window's latencies, so the window's mean (summed
// in completion order) comes out exactly as without the call.
func TestRunP95MidWindowLeavesWindowIntact(t *testing.T) {
	with, without := newReuseEngine(t, 7, 0.6), newReuseEngine(t, 7, 0.6)
	var mark int
	for _, e := range []*Engine{with, without} {
		e.RunWindow(500)
		mark = e.MarkRun()
		for i := 0; i < 37; i++ {
			e.Step()
		}
	}
	for _, n := range with.AppNames() {
		with.RunP95(n, mark)
	}
	for i, a := range with.apps {
		b := without.apps[i]
		if len(a.lat) == 0 && a.class == workload.LC {
			t.Fatalf("%s completed nothing; the open window is empty", a.name)
		}
		for j := range a.lat {
			if bits(a.lat[j]) != bits(b.lat[j]) {
				t.Fatalf("%s: RunP95 reordered the open window at %d", a.name, j)
			}
		}
	}

	got := reuseScript(t, newReuseEngine(t, 7, 0.6), true)
	want := reuseScript(t, newReuseEngine(t, 7, 0.6), false)
	if !sameWindows(got.windows, want.windows) {
		t.Fatal("a mid-window RunP95 changed the window observations")
	}
	if n := len(reuseApps(0)); !equalBits(got.p95[n:], want.p95) {
		t.Fatal("a mid-window RunP95 changed later run-level p95s")
	}
}

func equalBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
