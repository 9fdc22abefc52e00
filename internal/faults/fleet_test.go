package faults

import (
	"reflect"
	"testing"

	"ahq/internal/machine"
)

func TestParseFleetRoundTrip(t *testing.T) {
	cases := []string{
		"crash@120x3/nodes=2%",
		"degrade@200+/node=17",
		"blackout@50x10/nodes=5",
		"crash@4+/nodes=1",
		"crash@10/nodes=1,degrade@10x4/nodes=3,blackout@12x2/nodes=10%",
	}
	for _, spec := range cases {
		p, err := ParseFleet(spec)
		if err != nil {
			t.Fatalf("ParseFleet(%q): %v", spec, err)
		}
		if got := p.String(); got != spec {
			t.Errorf("round-trip %q -> %q", spec, got)
		}
		// Parse(String(Parse(x))) must be a fixed point.
		again, err := ParseFleet(p.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", p.String(), err)
		}
		if !reflect.DeepEqual(p, again) {
			t.Errorf("re-parse of %q not a fixed point: %+v vs %+v", spec, p, again)
		}
	}
}

func TestParseFleetEmpty(t *testing.T) {
	for _, spec := range []string{"", "-", "none", "  "} {
		p, err := ParseFleet(spec)
		if err != nil {
			t.Fatalf("ParseFleet(%q): %v", spec, err)
		}
		if !p.Empty() {
			t.Errorf("ParseFleet(%q) not empty: %v", spec, p)
		}
		if p.String() != "-" {
			t.Errorf("empty plan renders %q, want -", p.String())
		}
	}
}

func TestParseFleetDefaultSelector(t *testing.T) {
	p, err := ParseFleet("crash@5x2")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != "crash@5x2/nodes=1" {
		t.Errorf("default selector renders %q, want crash@5x2/nodes=1", got)
	}
}

func TestParseFleetRejects(t *testing.T) {
	cases := []string{
		"melt@5/nodes=1",        // unknown kind
		"crash@-1/nodes=1",      // bad epoch
		"crash@5x0/nodes=1",     // bad duration
		"crash@5/nodes=0",       // bad count
		"crash@5/nodes=0%",      // bad percent
		"crash@5/nodes=150%",    // percent > 100
		"crash@5/nodes=NaN%",    // not a percentage
		"crash@5/node=-2",       // negative node
		"crash@5/victims=3",     // bad selector key
		"crash",                 // missing epoch
		"crash@5/nodes=2%extra", // trailing junk in percent
	}
	for _, spec := range cases {
		if _, err := ParseFleet(spec); err == nil {
			t.Errorf("ParseFleet(%q) accepted, want error", spec)
		}
	}
}

func TestResolveDeterministic(t *testing.T) {
	p, err := ParseFleet("crash@10x3/nodes=5%,blackout@20x2/nodes=3")
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Resolve(42, 200)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Resolve(42, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Resolve not deterministic:\n%+v\n%+v", a, b)
	}
	for _, e := range a.Events {
		if e.Victims == nil {
			t.Fatal("Resolve left events without victims")
		}
	}
	// 5% of 200 = 10 victims; all distinct, in range, sorted.
	crash := a.Events[0]
	if crash.Kind != NodeCrash || len(crash.Victims) != 10 {
		t.Fatalf("crash event: %+v, want 10 victims", crash)
	}
	seen := map[int]bool{}
	prev := -1
	for _, v := range crash.Victims {
		if v < 0 || v >= 200 {
			t.Errorf("victim %d outside fleet", v)
		}
		if seen[v] {
			t.Errorf("duplicate victim %d", v)
		}
		if v <= prev {
			t.Errorf("victims not strictly ascending: %v", crash.Victims)
		}
		seen[v] = true
		prev = v
	}
	// A different seed must (overwhelmingly) draw different victims.
	c, err := p.Resolve(43, 200)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events[0].Victims, c.Events[0].Victims) {
		t.Errorf("seeds 42 and 43 drew identical victims %v", a.Events[0].Victims)
	}
}

func TestResolveExplicitNodeAndBounds(t *testing.T) {
	p, err := ParseFleet("degrade@5+/node=17")
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Resolve(1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Events[0].Victims, []int{17}) {
		t.Errorf("victims = %v, want [17]", r.Events[0].Victims)
	}
	if _, err := p.Resolve(1, 10); err == nil {
		t.Error("node=17 accepted against a fleet of 10, want error")
	}
	// Percent of a tiny fleet still draws at least one victim.
	p2, _ := ParseFleet("crash@5/nodes=1%")
	r2, err := p2.Resolve(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Events[0].Victims) != 1 {
		t.Errorf("1%% of 3 nodes drew %d victims, want 1", len(r2.Events[0].Victims))
	}
}

func TestDownAtAndDegradedAt(t *testing.T) {
	p, err := ParseFleet("crash@10x3/node=2,degrade@5+/node=4")
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Resolve(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		node, epoch int
		down        bool
	}{
		{2, 9, false}, {2, 10, true}, {2, 12, true}, {2, 13, false},
		{3, 11, false}, {4, 11, false},
	} {
		if got := r.DownAt(tc.node, tc.epoch); got != tc.down {
			t.Errorf("DownAt(%d,%d) = %v, want %v", tc.node, tc.epoch, got, tc.down)
		}
	}
	if r.At(NodeDegrade, 4, 4) || !r.At(NodeDegrade, 4, 5) || !r.At(NodeDegrade, 4, 1000) {
		t.Error("At(NodeDegrade) wrong for persistent degrade@5 on node 4")
	}
	if r.At(NodeDegrade, 2, 6) {
		t.Error("At(NodeDegrade) hit an un-degraded node")
	}
}

func TestBlackoutPlan(t *testing.T) {
	p, err := ParseFleet("blackout@4x3/node=1,blackout@9x2/node=1")
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Resolve(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Full range: two runs, re-based to segment epoch 0 at fleet epoch 2.
	local := r.BlackoutPlan(1, 2, 12)
	if local == nil {
		t.Fatal("BlackoutPlan returned nil for a blacked-out node")
	}
	if got, want := local.String(), "drop@2x3,drop@7x2"; got != want {
		t.Errorf("BlackoutPlan(1,2,12) = %q, want %q", got, want)
	}
	// A range cutting through the first run keeps only the covered epochs.
	local = r.BlackoutPlan(1, 5, 7)
	if got, want := local.String(), "drop@0x2"; got != want {
		t.Errorf("BlackoutPlan(1,5,7) = %q, want %q", got, want)
	}
	// Untouched node and uncovered range yield nil.
	if r.BlackoutPlan(0, 0, 12) != nil {
		t.Error("BlackoutPlan hit an untouched node")
	}
	if r.BlackoutPlan(1, 0, 4) != nil {
		t.Error("BlackoutPlan hit an uncovered range")
	}
}

func TestDegradedSpec(t *testing.T) {
	s := machine.Spec{Cores: 10, LLCWays: 20, MemBWUnits: 10, MemBWGBps: 40}
	d := DegradedSpec(s)
	if d.Cores != 5 || d.LLCWays != 10 || d.MemBWUnits != 5 || d.MemBWGBps != 20 {
		t.Errorf("DegradedSpec(%+v) = %+v", s, d)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("degraded spec invalid: %v", err)
	}
	// Tiny specs floor at one unit and stay valid.
	tiny := DegradedSpec(machine.Spec{Cores: 1, LLCWays: 1, MemBWUnits: 1, MemBWGBps: 1})
	if tiny.Cores != 1 || tiny.LLCWays != 1 || tiny.MemBWUnits != 1 {
		t.Errorf("tiny degraded spec = %+v, want floors of 1", tiny)
	}
	if err := tiny.Validate(); err != nil {
		t.Errorf("tiny degraded spec invalid: %v", err)
	}
}

func TestFleetEventHits(t *testing.T) {
	e := FleetEvent{Victims: []int{2, 5, 9}}
	for node, want := range map[int]bool{0: false, 2: true, 3: false, 5: true, 9: true, 10: false} {
		if got := e.Hits(node); got != want {
			t.Errorf("Hits(%d) = %v, want %v", node, got, want)
		}
	}
}
