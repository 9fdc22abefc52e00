package sim

import (
	"sort"
	"testing"

	"ahq/internal/machine"
	"ahq/internal/trace"
	"ahq/internal/workload"
)

// TestWindowSizeDoesNotChangeDynamics: the monitoring window is an
// observation boundary, not a simulation boundary — running the same seed
// with 250 ms windows and with 500 ms windows must produce identical
// request-level latencies as long as no allocation changes. Each engine
// is marked at the start so it keeps every latency. Each window's tail
// selection reorders that window's latencies in place, so the runs are
// compared as sorted multisets.
func TestWindowSizeDoesNotChangeDynamics(t *testing.T) {
	build := func() *Engine {
		x, m := workload.MustLC("xapian"), workload.MustLC("moses")
		b := workload.MustBE("stream")
		e, err := New(Config{
			Spec: machine.DefaultSpec(),
			Seed: 77,
			Apps: []AppConfig{
				{LC: &x, Load: trace.Constant(0.5)},
				{LC: &m, Load: trace.Constant(0.2)},
				{BE: &b},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		e.MarkRun()
		return e
	}

	coarse := build()
	for coarse.NowMs() < 10_000 {
		coarse.RunWindow(500)
	}
	fine := build()
	for fine.NowMs() < 10_000 {
		fine.RunWindow(250)
	}
	stepped := build()
	for stepped.NowMs() < 10_000 {
		stepped.Step()
	}

	a, b, c := coarse.apps[0].lat, fine.apps[0].lat, stepped.apps[0].lat
	sort.Float64s(a)
	sort.Float64s(b)
	sort.Float64s(c)
	if len(a) != len(b) || len(a) != len(c) {
		t.Fatalf("completion counts differ: 500ms=%d 250ms=%d step=%d", len(a), len(b), len(c))
	}
	for i := range a {
		if a[i] != b[i] || a[i] != c[i] {
			t.Fatalf("latency %d differs: %.6f vs %.6f vs %.6f", i, a[i], b[i], c[i])
		}
	}
}
