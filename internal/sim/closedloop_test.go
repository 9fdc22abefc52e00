package sim

import (
	"math"
	"testing"

	"ahq/internal/machine"
	"ahq/internal/workload"
)

func closedEngine(t *testing.T, users int, thinkMs float64, cores int) *Engine {
	t.Helper()
	app := workload.MustLC("xapian")
	spec := machine.DefaultSpec()
	spec.Cores = cores
	e, err := New(Config{
		Spec: spec,
		Seed: 17,
		Apps: []AppConfig{{LC: &app, ClosedLoopUsers: users, ThinkTimeMs: thinkMs}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestClosedLoopValidation(t *testing.T) {
	app := workload.MustLC("xapian")
	if _, err := New(Config{
		Spec: machine.DefaultSpec(),
		Apps: []AppConfig{{LC: &app, ClosedLoopUsers: -1}},
	}); err == nil {
		t.Error("negative users accepted")
	}
	if _, err := New(Config{
		Spec: machine.DefaultSpec(),
		Apps: []AppConfig{{LC: &app}},
	}); err == nil {
		t.Error("LC app without any load source accepted")
	}
}

func TestClosedLoopThroughputMatchesLittlesLaw(t *testing.T) {
	// N users, think time Z, response time R: throughput = N/(R+Z).
	users, think := 8, 20.0
	e := closedEngine(t, users, think, 10)
	for e.NowMs() < 3_000 {
		e.RunWindow(500)
	}
	e.MarkRun()
	for e.NowMs() < 23_000 {
		e.RunWindow(500)
	}
	n := len(e.apps[0].lat)
	if n == 0 {
		t.Fatal("no completions")
	}
	meanLat := 0.0
	for _, l := range e.apps[0].lat {
		meanLat += l
	}
	meanLat /= float64(n)
	gotQPS := float64(n) / 20.0 // completions over a 20 s horizon
	wantQPS := float64(users) / (meanLat + think) * 1000
	if math.Abs(gotQPS-wantQPS)/wantQPS > 0.1 {
		t.Errorf("throughput %.0f QPS, Little's law predicts %.0f (R=%.2f ms)",
			gotQPS, wantQPS, meanLat)
	}
}

func TestClosedLoopBoundsOutstanding(t *testing.T) {
	// The queue can never exceed the user count, even on one core —
	// closed loops self-throttle instead of dropping.
	users := 6
	e := closedEngine(t, users, 1.0, 1)
	maxQ, drops := 0, 0
	for i := 0; i < 40; i++ {
		ws := e.RunWindow(500)
		drops += ws[0].Dropped
		if q := e.QueueLen("xapian"); q > maxQ {
			maxQ = q
		}
	}
	if maxQ > users {
		t.Errorf("outstanding %d exceeds %d users", maxQ, users)
	}
	if drops != 0 {
		t.Errorf("closed loop dropped %d requests", drops)
	}
}

func TestClosedLoopMoreUsersMoreLoad(t *testing.T) {
	qps := func(users int) float64 {
		e := closedEngine(t, users, 10, 10)
		for e.NowMs() < 2_000 {
			e.RunWindow(500)
		}
		e.MarkRun()
		for e.NowMs() < 10_000 {
			e.RunWindow(500)
		}
		return float64(len(e.apps[0].lat)) / 8.0
	}
	few, many := qps(2), qps(16)
	if many <= few*2 {
		t.Errorf("throughput barely scaled with users: %.1f -> %.1f req/s", few, many)
	}
}
