package lint_test

import (
	"testing"

	"ahq/internal/lint"
	"ahq/internal/lint/linttest"
)

// Each analyzer is checked against its golden fixture package: every
// deliberately seeded violation must be reported (with a message the
// fixture's `// want` regexp matches) and every allowlisted or clean
// line must stay silent.

// TestDetFlowFixture loads the fixture root AND its helper subpackage
// into one program: the helper is outside detflow's scope, so its roots
// are reported only at the laundering call sites in the root package.
func TestDetFlowFixture(t *testing.T) {
	linttest.RunProgram(t, ".", lint.DetFlow,
		"./testdata/src/detflow", "./testdata/src/detflow/helper")
}

func TestHotPathFixture(t *testing.T) {
	linttest.RunProgram(t, ".", lint.HotPath, "./testdata/src/hotpath")
}

// TestUnusedFixture loads the fixture root and the helper package it
// imports, so a cross-package reference counts as a use.
func TestUnusedFixture(t *testing.T) {
	linttest.RunProgram(t, ".", lint.Unused,
		"./testdata/src/unused", "./testdata/src/unused/helper")
}

func TestLockCheckFixture(t *testing.T) {
	linttest.Run(t, ".", lint.LockCheck, "./testdata/src/lockcheck")
}

func TestUnitCheckFixture(t *testing.T) {
	linttest.Run(t, ".", lint.UnitCheck, "./testdata/src/unitcheck")
}

func TestFloatCmpFixture(t *testing.T) {
	linttest.Run(t, ".", lint.FloatCmp, "./testdata/src/floatcmp")
}

func TestSeedPlumbFixture(t *testing.T) {
	linttest.Run(t, ".", lint.SeedPlumb, "./testdata/src/seedplumb")
}

func TestErrWrapFixture(t *testing.T) {
	linttest.Run(t, ".", lint.ErrWrap, "./testdata/src/errwrap")
}

// TestEachFixtureViolationHasOneAnalyzer runs the FULL suite over every
// fixture and checks that each seeded violation is reported by exactly
// one analyzer: fixtures encode the expectations of their own analyzer,
// so any cross-analyzer report would surface as an unexpected finding in
// the per-analyzer runs above, and any overlap would double-report here.
func TestEachFixtureViolationHasOneAnalyzer(t *testing.T) {
	pkgs, err := lint.Load(".", "./testdata/src/...")
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.RunAnalyzers(pkgs, lint.All())
	seen := make(map[string]string) // file:line:col -> analyzer
	for _, d := range diags {
		key := d.Pos.String()
		if prev, dup := seen[key]; dup {
			t.Errorf("%s reported by both %s and %s", key, prev, d.Analyzer)
		}
		seen[key] = d.Analyzer
	}
	if len(diags) == 0 {
		t.Fatal("full suite found no violations in fixtures; expected the seeded ones")
	}
}

// TestScoping pins the AppliesTo package scoping: detflow and floatcmp
// are restricted to the simulation core (plus, for detflow, the fixture
// root — but not its helper — so the golden test can exercise the scope
// boundary), unitcheck exempts internal/units, unused skips the root
// facade, the test-helper packages and other analyzers' fixtures, and the
// rest are module-wide.
func TestScoping(t *testing.T) {
	cases := []struct {
		analyzer *lint.Analyzer
		pkgPath  string
		want     bool
	}{
		{lint.DetFlow, "ahq/internal/sim", true},
		{lint.DetFlow, "ahq/internal/sched/clite", true},
		{lint.DetFlow, "ahq/cmd/ahqbench", true},
		{lint.DetFlow, "ahq/internal/cluster", true},
		{lint.DetFlow, "ahq/internal/pool", true},
		{lint.DetFlow, "ahq/internal/workload", false},
		{lint.DetFlow, "ahq/cmd/ahqd", false},
		{lint.DetFlow, "ahq/internal/lint/testdata/src/detflow", true},
		{lint.DetFlow, "ahq/internal/lint/testdata/src/detflow/helper", false},
		{lint.FloatCmp, "ahq/internal/metrics", true},
		{lint.FloatCmp, "ahq/internal/cluster", false},
		{lint.UnitCheck, "ahq/internal/units", false},
		{lint.UnitCheck, "ahq/cmd/ahqd", true},
		{lint.Unused, "ahq", false},
		{lint.Unused, "ahq/internal/sched/schedtest", false},
		{lint.Unused, "ahq/internal/lint/linttest", false},
		{lint.Unused, "ahq/internal/sim", true},
		{lint.Unused, "ahq/internal/lint/testdata/src/detflow", false},
		{lint.Unused, "ahq/internal/lint/testdata/src/unused/helper", true},
	}
	for _, c := range cases {
		if got := c.analyzer.AppliesTo(c.pkgPath); got != c.want {
			t.Errorf("%s.AppliesTo(%q) = %v, want %v", c.analyzer.Name, c.pkgPath, got, c.want)
		}
	}
	for _, a := range []*lint.Analyzer{lint.SeedPlumb, lint.ErrWrap, lint.HotPath, lint.LockCheck} {
		if a.AppliesTo != nil {
			t.Errorf("%s should be module-wide (AppliesTo == nil)", a.Name)
		}
	}
}
