package faults

// Fleet-scope faults. A Plan (plan.go) schedules faults inside one node's
// controller run; a FleetPlan schedules faults across a *fleet* of nodes —
// whole-node crashes, capacity degradations, and telemetry blackouts — in
// the same epoch-indexed spec DSL, extended with a victim selector:
//
//	crash@120x3/nodes=2%     2% of the fleet dead for epochs 120-122
//	degrade@200+/node=17     node 17 loses half its capacity from epoch 200
//	blackout@50x10/nodes=5   5 nodes deliver no telemetry for 10 epochs
//
// Selectors come in three spellings: node=K pins one explicit node,
// nodes=N draws N distinct victims, nodes=P% draws ⌈P% of the fleet⌉
// victims (at least one). Drawn selectors are resolved deterministically
// from a seed (Resolve, GenerateFleet), so the same plan against the same
// fleet always hurts the same nodes. Everything downstream — the cluster
// engine's phase schedule, the supervisor's re-placements — is a pure
// function of the resolved plan.

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"ahq/internal/machine"
)

// FleetKind enumerates the fleet-scope fault classes.
type FleetKind int

const (
	// NodeCrash kills the victim nodes at the event epoch: their
	// applications stop running and deliver nothing. A bounded event
	// (xN) restarts the node after N epochs; a persistent event (+)
	// keeps it dead for the rest of the run.
	NodeCrash FleetKind = iota
	// NodeDegrade shrinks the victim nodes' capacity (cores, LLC ways,
	// memory bandwidth — see DegradedSpec) from the event epoch, restored
	// when the event ends unless persistent.
	NodeDegrade
	// NodeBlackout silences the victim nodes' telemetry for the event's
	// epochs: every application's window is dropped (the PR 4 drop
	// injector applied node-wide), while the node itself keeps running.
	NodeBlackout
	numFleetKinds
)

var fleetKindNames = [numFleetKinds]string{"crash", "degrade", "blackout"}

func (k FleetKind) String() string {
	if k < 0 || k >= numFleetKinds {
		return "unknown"
	}
	return fleetKindNames[k]
}

// Selector picks an event's victim nodes. Exactly one field is set.
type Selector struct {
	// Node pins one explicit node index; -1 when unused.
	Node int
	// Count draws that many distinct victims; 0 when unused.
	Count int
	// Percent draws ⌈Percent% of the fleet⌉ victims (at least one);
	// 0 when unused.
	Percent float64
}

// String renders the selector in spec form.
func (s Selector) String() string {
	switch {
	case s.Node >= 0:
		return fmt.Sprintf("node=%d", s.Node)
	case s.Percent > 0:
		return fmt.Sprintf("nodes=%g%%", s.Percent)
	default:
		return fmt.Sprintf("nodes=%d", s.Count)
	}
}

// victims returns how many nodes the selector draws from a fleet of n.
func (s Selector) victims(n int) int {
	switch {
	case s.Node >= 0:
		return 1
	case s.Percent > 0:
		c := int(s.Percent*float64(n)/100 + 0.5)
		if c < 1 {
			c = 1
		}
		if c > n {
			c = n
		}
		return c
	default:
		c := s.Count
		if c > n {
			c = n
		}
		return c
	}
}

// FleetEvent is one planned fleet fault: a kind active over an epoch range
// on a set of victim nodes.
type FleetEvent struct {
	Kind FleetKind
	// Epoch is the first controller epoch (0-based) the fault is active in.
	Epoch int
	// Epochs is the duration in epochs (>= 1); ignored when Persistent.
	Epochs int
	// Persistent keeps the fault active from Epoch until the run ends.
	Persistent bool
	// Sel picks the victims; ignored once Victims is resolved.
	Sel Selector
	// Victims holds the resolved victim node indices, ascending; nil until
	// Resolve (or GenerateFleet) assigns them.
	Victims []int
}

// ActiveAt reports whether the event covers the epoch.
func (e FleetEvent) ActiveAt(epoch int) bool {
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

// Hits reports whether the resolved event covers the node.
func (e FleetEvent) Hits(node int) bool {
	// Victims are sorted ascending; events hit a handful of nodes, so a
	// linear scan beats a binary search's branches at fleet scale.
	for _, v := range e.Victims {
		if v == node {
			return true
		}
		if v > node {
			return false
		}
	}
	return false
}

// String renders the event in plan-spec form: "crash@120x3/nodes=2%".
func (e FleetEvent) String() string {
	s := fmt.Sprintf("%s@%d", e.Kind, e.Epoch)
	switch {
	case e.Persistent:
		s += "+"
	case e.Epochs > 1:
		s = fmt.Sprintf("%sx%d", s, e.Epochs)
	}
	return s + "/" + e.Sel.String()
}

// FleetPlan is a deterministic, epoch-indexed fleet fault schedule. The
// zero value (and nil) is the empty plan: no faults.
type FleetPlan struct {
	Events []FleetEvent
}

// Empty reports whether the plan injects nothing.
func (p *FleetPlan) Empty() bool { return p == nil || len(p.Events) == 0 }

// String renders the plan as a comma-joined spec parseable by ParseFleet;
// the empty plan renders as "-".
func (p *FleetPlan) String() string {
	if p.Empty() {
		return "-"
	}
	parts := make([]string, len(p.Events))
	for i, e := range p.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// ParseFleet reads a fleet plan spec: comma-separated events of the form
// kind@epoch[xN|+]/selector, where kind is one of crash, degrade, blackout
// and selector is node=K, nodes=N or nodes=P%. A missing selector means
// nodes=1. "", "-" and "none" parse to the empty plan. Victims are not
// assigned here; Resolve draws them against a concrete fleet.
func ParseFleet(spec string) (*FleetPlan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "-" || spec == "none" {
		return &FleetPlan{}, nil
	}
	p := &FleetPlan{}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		evPart, selPart, hasSel := strings.Cut(item, "/")
		name, at, ok := strings.Cut(evPart, "@")
		if !ok {
			return nil, fmt.Errorf("faults: fleet event %q needs kind@epoch", item)
		}
		ev := FleetEvent{Kind: -1, Epochs: 1, Sel: Selector{Node: -1, Count: 1}}
		for k := FleetKind(0); k < numFleetKinds; k++ {
			if fleetKindNames[k] == name {
				ev.Kind = k
				break
			}
		}
		if ev.Kind < 0 {
			return nil, fmt.Errorf("faults: unknown fleet fault kind %q (want %s)",
				name, strings.Join(fleetKindNames[:], "|"))
		}
		if rest, ok := strings.CutSuffix(at, "+"); ok {
			ev.Persistent = true
			at = rest
		} else if epochStr, durStr, ok := strings.Cut(at, "x"); ok {
			n, err := strconv.Atoi(durStr)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("faults: fleet event %q: bad duration %q", item, durStr)
			}
			ev.Epochs = n
			at = epochStr
		}
		epoch, err := strconv.Atoi(at)
		if err != nil || epoch < 0 {
			return nil, fmt.Errorf("faults: fleet event %q: bad epoch %q", item, at)
		}
		ev.Epoch = epoch
		if hasSel {
			sel, err := parseSelector(selPart)
			if err != nil {
				return nil, fmt.Errorf("faults: fleet event %q: %w", item, err)
			}
			ev.Sel = sel
		}
		p.Events = append(p.Events, ev)
	}
	sortFleetEvents(p.Events)
	return p, nil
}

// parseSelector reads "node=K", "nodes=N" or "nodes=P%".
func parseSelector(s string) (Selector, error) {
	key, val, ok := strings.Cut(strings.TrimSpace(s), "=")
	if !ok {
		return Selector{}, fmt.Errorf("bad selector %q (want node=K, nodes=N or nodes=P%%)", s)
	}
	switch key {
	case "node":
		k, err := strconv.Atoi(val)
		if err != nil || k < 0 {
			return Selector{}, fmt.Errorf("bad node index %q", val)
		}
		return Selector{Node: k}, nil
	case "nodes":
		if pctStr, ok := strings.CutSuffix(val, "%"); ok {
			pct, err := strconv.ParseFloat(pctStr, 64)
			// Written so that NaN, which fails every comparison, is rejected.
			if err != nil || !(pct > 0 && pct <= 100) {
				return Selector{}, fmt.Errorf("bad percentage %q (want 0 < P <= 100)", val)
			}
			return Selector{Node: -1, Percent: pct}, nil
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 {
			return Selector{}, fmt.Errorf("bad node count %q", val)
		}
		return Selector{Node: -1, Count: n}, nil
	default:
		return Selector{}, fmt.Errorf("bad selector key %q (want node or nodes)", key)
	}
}

// Resolve draws every event's victim nodes against a fleet of n nodes,
// returning a new plan whose events carry sorted Victims. The draw is a
// pure function of (plan, seed, n): events are processed in canonical
// order, each consuming from one seeded stream, so equal inputs always
// pick equal victims. Events that already carry victims keep them
// (GenerateFleet pre-resolves; a plan may mix both), but every victim is
// validated against the fleet size.
func (p *FleetPlan) Resolve(seed int64, n int) (*FleetPlan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("faults: fleet plan needs a positive fleet size, got %d", n)
	}
	if p.Empty() {
		return &FleetPlan{}, nil
	}
	events := append([]FleetEvent(nil), p.Events...)
	sortFleetEvents(events)
	rng := rand.New(rand.NewSource(seed ^ 0x5eedf1ee7))
	for i := range events {
		ev := &events[i]
		if ev.Victims != nil {
			for _, v := range ev.Victims {
				if v < 0 || v >= n {
					return nil, fmt.Errorf("faults: fleet event %s: victim %d outside fleet of %d", ev, v, n)
				}
			}
			continue
		}
		if ev.Sel.Node >= 0 {
			if ev.Sel.Node >= n {
				return nil, fmt.Errorf("faults: fleet event %s: node %d outside fleet of %d", ev, ev.Sel.Node, n)
			}
			ev.Victims = []int{ev.Sel.Node}
			continue
		}
		k := ev.Sel.victims(n)
		perm := rng.Perm(n)[:k]
		sort.Ints(perm)
		ev.Victims = perm
	}
	return &FleetPlan{Events: events}, nil
}

// Resolved reports whether every event carries victims.
func (p *FleetPlan) Resolved() bool {
	if p == nil {
		return true
	}
	for _, e := range p.Events {
		if e.Victims == nil {
			return false
		}
	}
	return true
}

// GenerateFleet draws a reproducible random fleet plan over a fleet of n
// nodes and a default 120-epoch horizon: for each fault kind up to two
// events at random epochs with durations of two to eight epochs hitting up
// to 5% of the fleet; crash events are occasionally persistent. Victims
// are resolved from the same seed, so equal (seed, n) yield equal plans.
func GenerateFleet(seed int64, n int) *FleetPlan {
	const horizon = 120
	rng := rand.New(rand.NewSource(seed))
	p := &FleetPlan{}
	maxVictims := n / 20
	if maxVictims < 1 {
		maxVictims = 1
	}
	for k := FleetKind(0); k < numFleetKinds; k++ {
		for i, cnt := 0, rng.Intn(3); i < cnt; i++ {
			ev := FleetEvent{
				Kind:   k,
				Epoch:  1 + rng.Intn(horizon-1),
				Epochs: 2 + rng.Intn(7),
				Sel:    Selector{Node: -1, Count: 1 + rng.Intn(maxVictims)},
			}
			if k == NodeCrash && rng.Intn(5) == 0 {
				ev.Persistent = true
			}
			p.Events = append(p.Events, ev)
		}
	}
	sortFleetEvents(p.Events)
	resolved, err := p.Resolve(seed, n)
	if err != nil {
		// Unreachable: generated selectors are always within bounds.
		panic(err)
	}
	return resolved
}

// sortFleetEvents orders events canonically: by epoch, kind, duration,
// then selector rendering, so String output — and the victim draw, which
// consumes the seeded stream in event order — is stable.
func sortFleetEvents(events []FleetEvent) {
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
		if a.Epochs != b.Epochs {
			return a.Epochs < b.Epochs
		}
		return a.Sel.String() < b.Sel.String()
	})
}

// DownAt reports whether the node is crashed at the epoch. The plan must
// be resolved.
func (p *FleetPlan) DownAt(node, epoch int) bool {
	if p == nil {
		return false
	}
	for _, e := range p.Events {
		if e.Kind == NodeCrash && e.ActiveAt(epoch) && e.Hits(node) {
			return true
		}
	}
	return false
}

// DegradedAt reports whether the node runs with shrunken capacity at the
// epoch. The plan must be resolved.
func (p *FleetPlan) DegradedAt(node, epoch int) bool {
	if p == nil {
		return false
	}
	for _, e := range p.Events {
		if e.Kind == NodeDegrade && e.ActiveAt(epoch) && e.Hits(node) {
			return true
		}
	}
	return false
}

// Boundaries returns the sorted distinct epochs in (0, total) at which any
// crash or degrade event starts or ends — the epochs where the fleet's
// physical configuration changes and a phased simulation must cut a new
// segment. Blackout events are excluded: they lower to node-local
// telemetry faults inside a segment and never change the configuration.
func (p *FleetPlan) Boundaries(total int) []int {
	if p.Empty() {
		return nil
	}
	set := map[int]bool{}
	add := func(e int) {
		if e > 0 && e < total {
			set[e] = true
		}
	}
	for _, e := range p.Events {
		if e.Kind == NodeBlackout {
			continue
		}
		add(e.Epoch)
		if !e.Persistent {
			n := e.Epochs
			if n < 1 {
				n = 1
			}
			add(e.Epoch + n)
		}
	}
	out := make([]int, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sort.Ints(out)
	return out
}

// BlackoutPlan lowers the node's blackout coverage inside the epoch range
// [from, to) to a node-local telemetry fault plan: one TelemetryDrop event
// per blacked-out epoch, re-based to the range start (the segment's own
// epoch 0). Returns nil when the node has no blackout in the range. The
// plan must be resolved.
func (p *FleetPlan) BlackoutPlan(node, from, to int) *Plan {
	if p.Empty() {
		return nil
	}
	var out *Plan
	start, run := -1, 0
	flush := func() {
		if run == 0 {
			return
		}
		if out == nil {
			out = &Plan{}
		}
		out.Events = append(out.Events, Event{Kind: TelemetryDrop, Epoch: start, Epochs: run})
		start, run = -1, 0
	}
	for e := from; e < to; e++ {
		dark := false
		for _, ev := range p.Events {
			if ev.Kind == NodeBlackout && ev.ActiveAt(e) && ev.Hits(node) {
				dark = true
				break
			}
		}
		if dark {
			if run == 0 {
				start = e - from
			}
			run++
		} else {
			flush()
		}
	}
	flush()
	if out != nil {
		sortEvents(out.Events)
	}
	return out
}

// DegradeShrinkFactor is the capacity a degraded node retains: a degrade
// event halves the node's cores, LLC ways and memory bandwidth (floored at
// one unit of each). The DSL deliberately carries no magnitude — a fleet
// plan names *which* nodes lose capacity *when*; how much a degraded
// machine keeps is a property of the failure model, pinned here.
const DegradeShrinkFactor = 0.5

// DegradedSpec returns the capacity a degraded node retains.
func DegradedSpec(s machine.Spec) machine.Spec {
	half := func(v int) int {
		v = int(float64(v) * DegradeShrinkFactor)
		if v < 1 {
			v = 1
		}
		return v
	}
	return machine.Spec{
		Cores:      half(s.Cores),
		LLCWays:    half(s.LLCWays),
		MemBWUnits: half(s.MemBWUnits),
		MemBWGBps:  s.MemBWGBps * DegradeShrinkFactor,
	}
}
