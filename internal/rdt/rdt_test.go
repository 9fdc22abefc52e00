package rdt

import (
	"strings"
	"testing"
	"testing/quick"

	"ahq/internal/machine"
	"ahq/internal/sim"
	"ahq/internal/trace"
	"ahq/internal/workload"
)

func arqStyleAlloc() machine.Allocation {
	return machine.Allocation{Regions: []machine.Region{
		{Name: "iso:xapian", Kind: machine.Isolated, Cores: 2, Ways: 5, BWUnits: 2, Apps: []string{"xapian"}},
		{Name: "iso:moses", Kind: machine.Isolated, Apps: []string{"moses"}}, // empty, skipped
		{Name: "shared", Kind: machine.Shared, Policy: machine.LCPriority, Cores: 8, Ways: 15, BWUnits: 8,
			Apps: []string{"moses", "stream", "xapian"}},
	}}
}

func TestBuildPlanLayout(t *testing.T) {
	plan, err := BuildPlan(machine.DefaultSpec(), arqStyleAlloc())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Classes) != 2 {
		t.Fatalf("got %d classes, want 2 (empty region skipped)", len(plan.Classes))
	}
	iso, shared := plan.Classes[0], plan.Classes[1]
	if iso.CoreList() != "0-1" {
		t.Errorf("iso cores = %q, want 0-1", iso.CoreList())
	}
	if shared.CoreList() != "2-9" {
		t.Errorf("shared cores = %q, want 2-9", shared.CoreList())
	}
	if iso.WayMask != 0x1f {
		t.Errorf("iso mask = %#x, want 0x1f", iso.WayMask)
	}
	if shared.WayMask != 0xfffe0 {
		t.Errorf("shared mask = %#x, want 0xfffe0", shared.WayMask)
	}
	if iso.WayMask&shared.WayMask != 0 {
		t.Error("way masks overlap")
	}
	if iso.MBAPercent != 20 || shared.MBAPercent != 80 {
		t.Errorf("MBA = %d%%, %d%%", iso.MBAPercent, shared.MBAPercent)
	}
}

func TestPlanMasksAlwaysContiguousAndDisjoint(t *testing.T) {
	spec := machine.DefaultSpec()
	f := func(c1, w1, c2 uint8) bool {
		cores1 := int(c1)%5 + 1
		ways1 := int(w1)%10 + 1
		cores2 := int(c2) % (spec.Cores - cores1)
		alloc := machine.Allocation{Regions: []machine.Region{
			{Name: "iso:a", Kind: machine.Isolated, Cores: cores1, Ways: ways1, BWUnits: 3, Apps: []string{"a"}},
			{Name: "shared", Kind: machine.Shared, Cores: spec.Cores - cores1 - cores2, Ways: spec.LLCWays - ways1,
				BWUnits: 7, Apps: []string{"a", "b"}},
		}}
		plan, err := BuildPlan(spec, alloc)
		if err != nil {
			return false
		}
		var union uint64
		for _, cl := range plan.Classes {
			if !ContiguousMask(cl.WayMask) {
				return false
			}
			if union&cl.WayMask != 0 {
				return false
			}
			union |= cl.WayMask
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBuildPlanRejectsOvercommit(t *testing.T) {
	alloc := machine.Allocation{Regions: []machine.Region{{
		Name: "shared", Kind: machine.Shared, Cores: 99, Ways: 20, BWUnits: 10, Apps: []string{"a"},
	}}}
	if _, err := BuildPlan(machine.DefaultSpec(), alloc); err == nil {
		t.Error("overcommitted allocation planned")
	}
}

func TestContiguousMask(t *testing.T) {
	for mask, want := range map[uint64]bool{
		0: true, 1: true, 0b111: true, 0b11100: true,
		0b101: false, 0b11011: false,
	} {
		if got := ContiguousMask(mask); got != want {
			t.Errorf("ContiguousMask(%#b) = %v", mask, got)
		}
	}
}

func TestCoreListFormatting(t *testing.T) {
	cases := []struct {
		cores []int
		want  string
	}{
		{nil, ""},
		{[]int{3}, "3"},
		{[]int{0, 1, 2}, "0-2"},
		{[]int{0, 2, 3, 7}, "0,2-3,7"},
	}
	for _, c := range cases {
		cl := CLOS{Cores: c.cores}
		if got := cl.CoreList(); got != c.want {
			t.Errorf("CoreList(%v) = %q, want %q", c.cores, got, c.want)
		}
	}
}

func TestPlanString(t *testing.T) {
	plan, err := BuildPlan(machine.DefaultSpec(), arqStyleAlloc())
	if err != nil {
		t.Fatal(err)
	}
	s := plan.String()
	for _, want := range []string{"CLOS0", "CLOS1", "L3=1f", "MBA=80%"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string missing %q:\n%s", want, s)
		}
	}
}

func TestSimHostApplies(t *testing.T) {
	x := workload.MustLC("xapian")
	st := workload.MustBE("stream")
	engine, err := sim.New(sim.Config{
		Spec: machine.DefaultSpec(),
		Seed: 1,
		Apps: []sim.AppConfig{
			{LC: &x, Load: trace.Constant(0.2)},
			{BE: &st},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	host := NewSimHost(engine)
	if host.Spec() != machine.DefaultSpec() {
		t.Error("Spec mismatch")
	}
	good := machine.Allocation{Regions: []machine.Region{
		{Name: "iso:xapian", Kind: machine.Isolated, Cores: 4, Ways: 8, BWUnits: 4, Apps: []string{"xapian"}},
		{Name: "shared", Kind: machine.Shared, Cores: 6, Ways: 12, BWUnits: 6, Apps: []string{"stream", "xapian"}},
	}}
	if err := host.Apply(good); err != nil {
		t.Fatalf("valid allocation rejected: %v", err)
	}
	if !engine.Allocation().Equal(good) {
		t.Error("allocation not installed")
	}
	bad := good.Clone()
	bad.Regions[0].Cores = 40
	if err := host.Apply(bad); err == nil {
		t.Error("overcommitted allocation applied")
	}
}
