// Package faults provides deterministic fault injection for the Ah-Q
// controller: a seeded, epoch-indexed fault plan plus wrappers for the
// engine (core.Engine, whose SetAllocation is also the enforcement path)
// and the strategy (sched.Strategy) that make the planned faults happen —
// rejected applies, dropped/stale/NaN-corrupted telemetry windows, and
// strategy panics. Plan epochs are controller epochs (core.Controller.Step
// calls): the engine wrapper counts RunWindow calls, one per Step, and the
// strategy wrapper reads the epoch the controller hands Decide.
// Everything is reproducible from the plan alone: the same plan against the
// same seeded engine yields byte-identical runs, and an empty plan makes
// every wrapper a pass-through, so the zero-fault path is a true no-op.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// ApplyFail makes SetAllocation/Apply return an error.
	ApplyFail Kind = iota
	// TelemetryDrop makes RunWindow deliver no windows.
	TelemetryDrop
	// TelemetryStale makes RunWindow replay the previous healthy snapshot
	// with its old timestamp (the engine still advances underneath).
	TelemetryStale
	// MetricNaN corrupts the delivered windows' latency/IPC metrics to NaN.
	MetricNaN
	// StrategyPanic makes the wrapped strategy panic inside Decide.
	StrategyPanic
	numKinds
)

var kindNames = [numKinds]string{"apply", "drop", "stale", "nan", "panic"}

func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return "unknown"
	}
	return kindNames[k]
}

// Event is one planned fault: a kind active over a controller-epoch range.
type Event struct {
	Kind Kind
	// Epoch is the first controller epoch (0-based) the fault is active in.
	Epoch int
	// Epochs is the duration in epochs (>= 1); ignored when Persistent.
	Epochs int
	// Persistent keeps the fault active from Epoch until the run ends.
	Persistent bool
}

// ActiveAt reports whether the event covers the epoch.
func (e Event) ActiveAt(epoch int) bool {
	if epoch < e.Epoch {
		return false
	}
	if e.Persistent {
		return true
	}
	n := e.Epochs
	if n < 1 {
		n = 1
	}
	return epoch < e.Epoch+n
}

// String renders the event in plan-spec form: "apply@5", "drop@8x3",
// "apply@10+".
func (e Event) String() string {
	s := fmt.Sprintf("%s@%d", e.Kind, e.Epoch)
	switch {
	case e.Persistent:
		return s + "+"
	case e.Epochs > 1:
		return fmt.Sprintf("%sx%d", s, e.Epochs)
	}
	return s
}

// Plan is a deterministic, epoch-indexed fault schedule. The zero value
// (and nil) is the empty plan: no faults.
type Plan struct {
	Events []Event
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// ActiveAt reports whether any event of the kind covers the epoch.
func (p *Plan) ActiveAt(epoch int, k Kind) bool {
	if p == nil {
		return false
	}
	for _, e := range p.Events {
		if e.Kind == k && e.ActiveAt(epoch) {
			return true
		}
	}
	return false
}

// String renders the plan as a comma-joined spec parseable by Parse; the
// empty plan renders as "-".
func (p *Plan) String() string {
	if p.Empty() {
		return "-"
	}
	parts := make([]string, len(p.Events))
	for i, e := range p.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// Parse reads a plan spec: comma-separated events of the form
// kind@epoch[xN|+], where kind is one of apply, drop, stale, nan, panic.
// "", "-" and "none" parse to the empty plan.
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "-" || spec == "none" {
		return &Plan{}, nil
	}
	p := &Plan{}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, at, ok := strings.Cut(item, "@")
		if !ok {
			return nil, fmt.Errorf("faults: event %q needs kind@epoch", item)
		}
		ev := Event{Kind: -1, Epochs: 1}
		for k := Kind(0); k < numKinds; k++ {
			if kindNames[k] == name {
				ev.Kind = k
				break
			}
		}
		if ev.Kind < 0 {
			return nil, fmt.Errorf("faults: unknown fault kind %q (want %s)",
				name, strings.Join(kindNames[:], "|"))
		}
		if rest, ok := strings.CutSuffix(at, "+"); ok {
			ev.Persistent = true
			at = rest
		} else if epochStr, durStr, ok := strings.Cut(at, "x"); ok {
			n, err := strconv.Atoi(durStr)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("faults: event %q: bad duration %q", item, durStr)
			}
			ev.Epochs = n
			at = epochStr
		}
		epoch, err := strconv.Atoi(at)
		if err != nil || epoch < 0 {
			return nil, fmt.Errorf("faults: event %q: bad epoch %q", item, at)
		}
		ev.Epoch = epoch
		p.Events = append(p.Events, ev)
	}
	sortEvents(p.Events)
	return p, nil
}

// Generate draws a reproducible random plan over a horizon of controller
// epochs: for each fault kind up to two events at random epochs in
// [1, horizon) with durations of one to three epochs; ApplyFail events are
// occasionally persistent. Equal seeds yield equal plans.
func Generate(seed int64, horizon int) *Plan {
	if horizon < 2 {
		horizon = 2
	}
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{}
	for k := Kind(0); k < numKinds; k++ {
		for i, n := 0, rng.Intn(3); i < n; i++ {
			ev := Event{Kind: k, Epoch: 1 + rng.Intn(horizon-1), Epochs: 1 + rng.Intn(3)}
			if k == ApplyFail && rng.Intn(5) == 0 {
				ev.Persistent = true
			}
			p.Events = append(p.Events, ev)
		}
	}
	sortEvents(p.Events)
	return p
}

// sortEvents orders events by epoch, then kind, then duration, so that
// String output (and everything derived from it) is canonical.
func sortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Epoch != b.Epoch {
			return a.Epoch < b.Epoch
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Persistent != b.Persistent {
			return b.Persistent
		}
		return a.Epochs < b.Epochs
	})
}
