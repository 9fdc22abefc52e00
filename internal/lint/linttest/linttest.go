// Package linttest runs an analyzer over a golden fixture package and
// compares its findings against `// want` expectations embedded in the
// fixture source, in the style of golang.org/x/tools' analysistest (which
// this module cannot depend on — the build is fully offline).
//
// A fixture line expecting a finding carries a trailing comment:
//
//	_ = time.Now() // want `time\.Now`
//
// Each backquoted or double-quoted string is a regular expression that
// must match the message of exactly one finding reported on that line.
// The expectation may also close another comment, which is how a stale
// //ahqlint:allow annotation states the suppress finding it draws.
// Lines with //ahqlint:allow annotations exercise the suppression path
// and must therefore produce no finding.
//
// Package analyzers use Run, which checks one fixture package ignoring
// the analyzer's AppliesTo scope. Program analyzers use RunProgram, which
// loads several fixture packages into one call graph and does honour
// AppliesTo — cross-package analyses like detflow define their behaviour
// by a scope boundary, so the fixture layout encodes which packages are
// inside it.
package linttest

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"ahq/internal/lint"
)

// wantRe pulls the expectation strings out of a `// want` comment.
var wantRe = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

type want struct {
	re      *regexp.Regexp
	matched bool
}

// collectWants parses every `// want` expectation in the packages, keyed
// by "file:line".
func collectWants(t *testing.T, pkgs []*lint.Package) map[string][]*want {
	t.Helper()
	wants := make(map[string][]*want)
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					_, text, ok := strings.Cut(c.Text, "// want ")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					for _, m := range wantRe.FindAllStringSubmatch(text, -1) {
						expr := m[1]
						if expr == "" {
							expr = m[2]
						}
						re, err := regexp.Compile(expr)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", key, expr, err)
						}
						wants[key] = append(wants[key], &want{re: re})
					}
				}
			}
		}
	}
	return wants
}

// compare matches findings against expectations, reporting both
// unexpected findings and unmatched expectations.
func compare(t *testing.T, wants map[string][]*want, diags []lint.Diagnostic) {
	t.Helper()
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected finding matching %q, got none", key, w.re)
			}
		}
	}
}

// Run loads the fixture package at pattern (relative to dir, typically
// "./testdata/src/<analyzer>"), applies the package analyzer with
// annotation filtering but without package scoping, and reports any
// mismatch between findings and `// want` expectations as test failures.
func Run(t *testing.T, dir string, a *lint.Analyzer, pattern string) {
	t.Helper()
	pkgs, err := lint.Load(dir, pattern)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pattern, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s loaded %d packages, want 1", pattern, len(pkgs))
	}
	compare(t, collectWants(t, pkgs), lint.RunAnalyzerFiltered(pkgs[0], a))
}

// RunProgram loads all fixture packages matched by the patterns into one
// program, applies the program analyzer through the full driver — so
// AppliesTo scoping, //ahqlint:allow filtering, and suppression-hygiene
// diagnostics all behave exactly as in production — and compares against
// the `// want` expectations of every loaded package.
func RunProgram(t *testing.T, dir string, a *lint.Analyzer, patterns ...string) {
	t.Helper()
	pkgs, err := lint.Load(dir, patterns...)
	if err != nil {
		t.Fatalf("loading fixtures %v: %v", patterns, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("patterns %v loaded no packages", patterns)
	}
	compare(t, collectWants(t, pkgs), lint.RunAnalyzers(pkgs, []*lint.Analyzer{a}))
}
