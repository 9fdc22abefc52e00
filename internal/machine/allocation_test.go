package machine

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

var testApps = []string{"xapian", "moses", "stream"}

func validAlloc() Allocation {
	return Allocation{Regions: []Region{
		{Name: "iso:xapian", Kind: Isolated, Cores: 2, Ways: 5, BWUnits: 2, Apps: []string{"xapian"}},
		{Name: "shared", Kind: Shared, Policy: LCPriority, Cores: 8, Ways: 15, BWUnits: 8,
			Apps: []string{"moses", "stream", "xapian"}},
	}}
}

func TestAllocationValidateOK(t *testing.T) {
	if err := validAlloc().Validate(DefaultSpec(), testApps); err != nil {
		t.Fatalf("valid allocation rejected: %v", err)
	}
}

func TestAllocationOvercommit(t *testing.T) {
	for _, r := range []Resource{Cores, LLCWays, MemBW} {
		a := validAlloc()
		g := a.Region("shared")
		g.SetAmount(r, g.Amount(r)+1)
		err := a.Validate(DefaultSpec(), testApps)
		if !errors.Is(err, ErrOverCommit) {
			t.Errorf("overcommit of %s: err = %v, want ErrOverCommit", r, err)
		}
	}
}

func TestAllocationIsolatedMembership(t *testing.T) {
	a := validAlloc()
	a.Regions[0].Apps = []string{"xapian", "moses"}
	if err := a.Validate(DefaultSpec(), testApps); err == nil {
		t.Error("isolated region with two members accepted")
	}
	a = validAlloc()
	a.Regions[0].Apps = nil
	if err := a.Validate(DefaultSpec(), testApps); err == nil {
		t.Error("isolated region with no member accepted")
	}
}

func TestAllocationUnknownApp(t *testing.T) {
	a := validAlloc()
	a.Regions[1].Apps = append(a.Regions[1].Apps, "ghost")
	if err := a.Validate(DefaultSpec(), testApps); err == nil {
		t.Error("unknown member accepted")
	}
}

func TestAllocationAppNeedsCores(t *testing.T) {
	// moses/stream live only in the shared region; draining its cores
	// strands them.
	a := validAlloc()
	a.Region("shared").Cores = 0
	if err := a.Validate(DefaultSpec(), testApps); err == nil {
		t.Error("allocation stranding moses accepted")
	}
}

func TestAllocationCloneIsDeep(t *testing.T) {
	a := validAlloc()
	b := a.Clone()
	b.Regions[0].Cores = 9
	b.Regions[1].Apps[0] = "other"
	if a.Regions[0].Cores != 2 {
		t.Error("Clone shares region storage")
	}
	if a.Regions[1].Apps[0] != "moses" {
		t.Error("Clone shares member slices")
	}
}

func TestAllocationEqual(t *testing.T) {
	a, b := validAlloc(), validAlloc()
	if !a.Equal(b) {
		t.Error("identical allocations not Equal")
	}
	b.Regions[0].Ways++
	if a.Equal(b) {
		t.Error("differing allocations Equal")
	}
	c := validAlloc()
	c.Regions[1].Apps[1] = "other"
	if a.Equal(c) {
		t.Error("differing memberships Equal")
	}
}

func TestAllocationLookups(t *testing.T) {
	a := validAlloc()
	if g := a.IsolatedRegionOf("xapian"); g == nil || g.Name != "iso:xapian" {
		t.Errorf("IsolatedRegionOf(xapian) = %v", g)
	}
	if g := a.IsolatedRegionOf("moses"); g != nil {
		t.Errorf("IsolatedRegionOf(moses) = %v, want nil", g)
	}
	if g := a.SharedRegion(); g == nil || g.Name != "shared" {
		t.Errorf("SharedRegion() = %v", g)
	}
	if g := a.Region("nope"); g != nil {
		t.Errorf("Region(nope) = %v", g)
	}
}

func TestAllocationString(t *testing.T) {
	s := validAlloc().String()
	for _, want := range []string{"iso:xapian{c2 w5 bw2}", "shared{c8 w15 bw8: moses,stream,xapian}"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestAllSharedCoversNode(t *testing.T) {
	a := AllShared(DefaultSpec(), FairShare, testApps)
	if err := a.Validate(DefaultSpec(), testApps); err != nil {
		t.Fatalf("AllShared invalid: %v", err)
	}
	g := a.SharedRegion()
	if g == nil || g.Cores != 10 || g.Ways != 20 || g.BWUnits != 10 {
		t.Fatalf("AllShared region = %+v", g)
	}
	for _, app := range testApps {
		if !g.Has(app) {
			t.Errorf("AllShared missing %q", app)
		}
	}
}

func TestUsedSumsRegions(t *testing.T) {
	a := validAlloc()
	if got := a.Used(Cores); got != 10 {
		t.Errorf("Used(Cores) = %d, want 10", got)
	}
	if got := a.Used(LLCWays); got != 20 {
		t.Errorf("Used(LLCWays) = %d, want 20", got)
	}
}

func TestRegionAmountRoundTrip(t *testing.T) {
	f := func(c, w, b uint8) bool {
		var g Region
		g.SetAmount(Cores, int(c))
		g.SetAmount(LLCWays, int(w))
		g.SetAmount(MemBW, int(b))
		return g.Amount(Cores) == int(c) && g.Amount(LLCWays) == int(w) && g.Amount(MemBW) == int(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKindAndPolicyStrings(t *testing.T) {
	if Isolated.String() != "isolated" || Shared.String() != "shared" {
		t.Error("RegionKind strings wrong")
	}
	if FairShare.String() != "fair-share" || LCPriority.String() != "lc-priority" {
		t.Error("SharePolicy strings wrong")
	}
}
