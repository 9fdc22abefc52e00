package sim

import "testing"

// markRead is what a caller reads off one mark at its window's end, as raw
// bits so NaNs compare equal.
type markRead struct{ p95, ipc []uint64 }

// readMark collects every application's run-level p95 and IPC since mark.
func readMark(e *Engine, mark int) markRead {
	var r markRead
	for _, n := range e.AppNames() {
		r.p95 = append(r.p95, bits(e.RunP95(n, mark)))
		r.ipc = append(r.ipc, bits(e.RunIPC(n, mark)))
	}
	return r
}

// freshMarkRead drives a fresh engine through from windows, marks, runs to
// windows to, and reads the mark: the single-mark reading of [from, to).
func freshMarkRead(t *testing.T, from, to int) markRead {
	t.Helper()
	e := newReuseEngine(t, 5, 0.7)
	for i := 0; i < from; i++ {
		e.RunWindow(500)
	}
	m := e.MarkRun()
	for i := from; i < to; i++ {
		e.RunWindow(500)
	}
	return readMark(e, m)
}

func sameMarkRead(a, b markRead) bool { return equalBits(a.p95, b.p95) && equalBits(a.ipc, b.ipc) }

// TestOverlappingMarksMatchFreshEngines: two live marks on one engine must
// report exactly what two fresh engines report when each is marked at that
// mark's epoch — whether the earlier mark ends first (its p95 is read while
// the later mark's run lies inside its own) or last — and releasing both
// must leave no closed window's latencies behind.
func TestOverlappingMarksMatchFreshEngines(t *testing.T) {
	for _, c := range []struct {
		name                   string
		aFrom, aTo, bFrom, bTo int
	}{
		{"earlier mark ends first", 2, 7, 4, 11},
		{"earlier mark ends last", 2, 11, 4, 7},
		{"marks taken together", 3, 6, 3, 10},
	} {
		e := newReuseEngine(t, 5, 0.7)
		var a, b int
		var gotA, gotB markRead
		last := max(c.aTo, c.bTo)
		for w := 0; w <= last; w++ {
			if w == c.aFrom {
				a = e.MarkRun()
			}
			if w == c.bFrom {
				b = e.MarkRun()
			}
			if w == c.aTo {
				gotA = readMark(e, a)
				e.ReleaseRun(a)
			}
			if w == c.bTo {
				gotB = readMark(e, b)
				e.ReleaseRun(b)
			}
			if w < last {
				e.RunWindow(500)
			}
		}
		if a == b {
			t.Fatalf("%s: two live marks share an id", c.name)
		}
		if want := freshMarkRead(t, c.aFrom, c.aTo); !sameMarkRead(gotA, want) {
			t.Errorf("%s: first mark %+v, fresh engine %+v", c.name, gotA, want)
		}
		if want := freshMarkRead(t, c.bFrom, c.bTo); !sameMarkRead(gotB, want) {
			t.Errorf("%s: second mark %+v, fresh engine %+v", c.name, gotB, want)
		}
		for _, app := range e.apps {
			if len(app.lat) != app.winStart || app.winStart != 0 {
				t.Errorf("%s: %s keeps %d latencies with no live mark", c.name, app.name, len(app.lat))
			}
		}
	}
}

// TestReleasedMarkIsReused: a released mark id is handed out again, so an
// engine marked once per window keeps one mark's state.
func TestReleasedMarkIsReused(t *testing.T) {
	e := newReuseEngine(t, 5, 0.7)
	m := e.MarkRun()
	for i := 0; i < 5; i++ {
		e.RunWindow(500)
		e.ReleaseRun(m)
		if next := e.MarkRun(); next != m {
			t.Fatalf("window %d: mark %d after releasing %d", i, next, m)
		}
	}
	e.ReleaseRun(m)
	e.ReleaseRun(m) // releasing a dead mark is a no-op
	if len(e.marks) != 1 || e.marks[0] {
		t.Errorf("mark slots %v; want one, released", e.marks)
	}
}

// TestUnmarkedEngineKeepsOneWindow: with no run mark live nothing reads a
// closed window's latencies, so each latency buffer is empty once a window
// closes and an engine that is never marked (the ahqd daemon's) holds at
// most the open window's latencies.
func TestUnmarkedEngineKeepsOneWindow(t *testing.T) {
	e := newReuseEngine(t, 5, 0.7)
	completed := 0
	for i := 0; i < 50; i++ {
		for _, w := range e.RunWindow(500) {
			completed += w.Completed
		}
		for _, a := range e.apps {
			if n := len(a.lat); n > 0 {
				t.Fatalf("window %d: %s keeps %d latencies with no mark live", i, a.name, n)
			}
		}
	}
	if completed == 0 {
		t.Fatal("no request completed; the check never ran")
	}
}
