// Package lint implements ahqlint, the project's static-analysis suite.
//
// The reproduction's headline guarantee — every paper table and figure is
// bit-reproducible at any -parallel level — rests on a handful of coding
// invariants: no wall-clock reads or ambient randomness in simulation
// paths, no map-iteration order leaking into output, explicit seed
// plumbing, no exact float equality on computed epoch values, no unit
// confusion between milliseconds and seconds, no allocation re-entering
// the //ahq:hotpath tick loop, and no unlocked access to fields a
// `// guarded by` comment protects. This package enforces those
// invariants mechanically with a small go/analysis-style framework built
// on the standard library (go/ast, go/types, and `go list -export`
// export data), so the checks run offline with no external dependencies.
//
// Analyzers come in two shapes. A package analyzer (Run) inspects one
// type-checked package at a time. A program analyzer (RunProgram) runs
// once over every loaded package together with a module-wide static call
// graph (callgraph.go), so it can follow facts across package boundaries
// — detflow's nondeterminism taint and hotpath's transitive
// allocation-freedom both need that view.
//
// A finding can be suppressed with a justification comment on the
// offending line or the line directly above it:
//
//	//ahqlint:allow <analyzer> <reason>
//
// The driver checks the annotations themselves: naming an analyzer that
// does not exist, or suppressing a finding that is no longer reported,
// is itself a diagnostic (analyzer name "suppress"), so typo'd and stale
// allowances cannot silently linger. See docs/lint.md for the analyzer
// catalogue.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one named check. Exactly one of Run (per-package)
// and RunProgram (whole-program) must be set.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //ahqlint:allow annotations. Lowercase, no spaces.
	Name string
	// Doc is a one-paragraph description of what the analyzer reports
	// and why the invariant matters.
	Doc string
	// AppliesTo reports whether the analyzer reports findings in the
	// package with the given import path; nil means every package. For
	// package analyzers the driver skips out-of-scope packages entirely;
	// for program analyzers every package still contributes to the call
	// graph, but diagnostics landing in out-of-scope packages are
	// dropped. Test harnesses for package analyzers bypass this so
	// fixtures under testdata/ are always checked; program-analyzer
	// fixtures instead carry their scope in their package layout.
	AppliesTo func(pkgPath string) bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// RunProgram inspects the whole loaded program at once.
	RunProgram func(*ProgramPass)
}

// A Pass carries one package analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A ProgramPass carries one program analyzer's view of the whole program.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program
	diags    *[]Diagnostic
}

// Reportf records a finding at pos. All packages of a program share one
// FileSet, so positions resolve regardless of which package they fall in.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// SuppressName is the analyzer name under which the driver reports
// problems with //ahqlint:allow annotations themselves (unknown analyzer
// names, stale suppressions). It is not a real analyzer and cannot itself
// be allowed — fix the annotation instead.
const SuppressName = "suppress"

// allowRe matches suppression annotations, with or without a space after
// `//`. The analyzer name is captured; everything after it is the
// (required by convention, unchecked) reason.
var allowRe = regexp.MustCompile(`^// ?ahqlint:allow (\S+)\b`)

// allowAnn is one parsed //ahqlint:allow annotation. used flips when the
// annotation actually suppresses a finding, which the driver checks after
// every analyzer has run: an unused annotation is stale.
type allowAnn struct {
	analyzer string
	pos      token.Position
	used     bool
}

// collectAllows parses every suppression annotation in the packages, in
// deterministic (package, file, comment) order.
func collectAllows(pkgs []*Package) []*allowAnn {
	var anns []*allowAnn
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := allowRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					anns = append(anns, &allowAnn{
						analyzer: m[1],
						pos:      pkg.Fset.Position(c.Pos()),
					})
				}
			}
		}
	}
	return anns
}

// indexAllows maps analyzer name -> file:line -> annotation. An annotation
// suppresses its own line and the next one, so it works both as a trailing
// comment and on a line of its own above the finding.
func indexAllows(anns []*allowAnn) map[string]map[string]*allowAnn {
	idx := make(map[string]map[string]*allowAnn)
	for _, ann := range anns {
		lines := idx[ann.analyzer]
		if lines == nil {
			lines = make(map[string]*allowAnn)
			idx[ann.analyzer] = lines
		}
		for _, line := range []int{ann.pos.Line, ann.pos.Line + 1} {
			key := fmt.Sprintf("%s:%d", ann.pos.Filename, line)
			if _, taken := lines[key]; !taken {
				lines[key] = ann
			}
		}
	}
	return idx
}

// suppressed consumes the annotation covering d, if any, marking it used.
func suppressed(idx map[string]map[string]*allowAnn, d Diagnostic) bool {
	key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
	if ann := idx[d.Analyzer][key]; ann != nil {
		ann.used = true
		return true
	}
	return false
}

// RunAnalyzers applies every analyzer to every package it covers, filters
// out annotated findings, validates the annotations themselves, and
// returns the remainder sorted by position. Analyzer scoping (AppliesTo)
// is honoured here; use RunAnalyzer / RunProgramAnalyzer to check
// packages unconditionally.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var prog *Program
	for _, a := range analyzers {
		if a.RunProgram != nil {
			prog = BuildProgram(pkgs)
			break
		}
	}
	allows := collectAllows(pkgs)
	idx := indexAllows(allows)
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			if a.AppliesTo != nil && !a.AppliesTo(pkg.PkgPath) {
				continue
			}
			for _, d := range RunAnalyzer(pkg, a) {
				if !suppressed(idx, d) {
					out = append(out, d)
				}
			}
		}
	}
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		for _, d := range RunProgramAnalyzer(prog, a) {
			if a.AppliesTo != nil {
				pkg := prog.PackageOf(d.Pos.Filename)
				if pkg == nil || !a.AppliesTo(pkg.PkgPath) {
					continue
				}
			}
			if !suppressed(idx, d) {
				out = append(out, d)
			}
		}
	}

	// Suppression hygiene: a typo'd analyzer name would otherwise make the
	// annotation silently inert, and an annotation whose finding was fixed
	// would linger as false documentation of a violation.
	for _, ann := range allows {
		switch {
		case !known[ann.analyzer]:
			out = append(out, Diagnostic{
				Pos:      ann.pos,
				Analyzer: SuppressName,
				Message: fmt.Sprintf("allow annotation names unknown analyzer %q (known: %s)",
					ann.analyzer, strings.Join(sortedNames(known), ", ")),
			})
		case !ann.used:
			out = append(out, Diagnostic{
				Pos:      ann.pos,
				Analyzer: SuppressName,
				Message: fmt.Sprintf("stale suppression: no %s finding on this or the next line; remove the annotation",
					ann.analyzer),
			})
		}
	}
	sortDiagnostics(out)
	return out
}

func sortedNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// RunAnalyzer applies one package analyzer to one package, ignoring
// AppliesTo and //ahqlint:allow annotations. Test fixtures use it
// directly.
func RunAnalyzer(pkg *Package, a *Analyzer) []Diagnostic {
	var diags []Diagnostic
	a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &diags})
	return diags
}

// RunProgramAnalyzer applies one program analyzer to a built program,
// ignoring AppliesTo (the analyzer sees every package; scope filtering is
// the driver's job) and //ahqlint:allow annotations.
func RunProgramAnalyzer(prog *Program, a *Analyzer) []Diagnostic {
	var diags []Diagnostic
	a.RunProgram(&ProgramPass{Analyzer: a, Prog: prog, diags: &diags})
	return diags
}

// RunAnalyzerFiltered applies one package analyzer to one package,
// ignoring AppliesTo but honouring //ahqlint:allow annotations — the
// single-package filtering the fixture harness composes.
func RunAnalyzerFiltered(pkg *Package, a *Analyzer) []Diagnostic {
	idx := indexAllows(collectAllows([]*Package{pkg}))
	var out []Diagnostic
	for _, d := range RunAnalyzer(pkg, a) {
		if !suppressed(idx, d) {
			out = append(out, d)
		}
	}
	return out
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		DetFlow,
		UnitCheck,
		FloatCmp,
		SeedPlumb,
		ErrWrap,
		HotPath,
		LockCheck,
		Unused,
	}
}

// pathIn reports whether pkgPath is one of the listed import paths or a
// sub-package of one.
func pathIn(pkgPath string, roots ...string) bool {
	for _, r := range roots {
		if pkgPath == r || strings.HasPrefix(pkgPath, r+"/") {
			return true
		}
	}
	return false
}

// walk visits every node of every file in the package.
func walk(pkg *Package, visit func(ast.Node) bool) {
	for _, f := range pkg.Syntax {
		ast.Inspect(f, visit)
	}
}

// calleeFunc resolves a call expression to the package-level function it
// invokes, or nil for methods, locals, conversions, and builtins.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := pass.Pkg.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}
