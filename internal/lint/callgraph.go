package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file builds the whole-program view the program analyzers run over:
// every function declared in the loaded packages, plus a static call graph
// between them. Edges come from two sources:
//
//   - Direct calls: plain function calls (f(), pkg.F()) and method calls
//     on concrete receivers (x.M() where x is a named type or a pointer to
//     one) resolve to the declared *types.Func.
//   - Interface dispatch: a method call through an interface declared in
//     this module (the repo's small interface vocabulary — sched.Strategy,
//     core.Engine, trace.Load, ... ) fans out to the same-named
//     method of every module-declared concrete type whose method set
//     satisfies the interface. Interfaces declared outside the module
//     (error, io.Writer) are not resolved: their implementation sets are
//     open-ended and resolving them would drown the graph in noise.
//
// The graph is deliberately conservative in the other known ways too, all
// documented in DESIGN.md: function values passed around (the experiments
// pool's submitted closures, strategy factories) and calls of function-
// typed fields are not edges, and function literals are attributed to the
// function whose body lexically contains them (a closure's statements are
// analyzed as part of its enclosing declaration). For the invariants these
// analyzers guard that attribution is what we want — the allocation and
// nondeterminism behaviour of a closure bills to the function that built
// and ran it.

// A CallSite is one resolved outgoing call from a function body.
type CallSite struct {
	// Pos is the position of the call expression.
	Pos token.Pos
	// Callee is the invoked function or method. It may be declared
	// outside the program (standard library); Program.Node returns nil
	// for those.
	Callee *types.Func
	// Iface is true when the edge came from interface method-set
	// resolution rather than a direct call: Callee is one of possibly
	// many implementations the dynamic dispatch could reach.
	Iface bool
}

// A FuncNode is one declared function or method with its body.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls lists the resolved outgoing calls in body order (interface
	// dispatch expands one call expression into one CallSite per
	// implementation).
	Calls []CallSite
}

// Name returns the node's diagnostic-friendly name: "pkg.Func" for
// functions, "pkg.(Type).Method" / "pkg.(*Type).Method" for methods.
func (n *FuncNode) Name() string {
	if recv := n.Fn.Type().(*types.Signature).Recv(); recv != nil {
		return n.Fn.Pkg().Name() + ".(" + types.TypeString(recv.Type(), func(p *types.Package) string { return "" }) + ")." + n.Fn.Name()
	}
	return n.Fn.Pkg().Name() + "." + n.Fn.Name()
}

// A Program is the whole-module view: every loaded package, their declared
// functions, and the static call graph between them.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
	// Nodes lists every declared function with a body, in deterministic
	// (package, file, declaration) order.
	Nodes []*FuncNode

	funcs   map[string]*FuncNode
	filePkg map[string]*Package
}

// Node returns the graph node of a declared function, or nil when fn was
// declared outside the loaded packages (standard library) or has no body.
//
// The lookup is keyed by FullName rather than object identity: the loader
// type-checks each target package from source but resolves its imports
// from compiler export data, so the *types.Func for a function seen from
// its importers is a different object than the one from its own
// type-check. FullName ("pkg/path.Func", "(pkg/path.Type).Method") is
// stable across both views.
func (p *Program) Node(fn *types.Func) *FuncNode { return p.funcs[fn.FullName()] }

// PackageOf returns the loaded package that contains the given file, or
// nil.
func (p *Program) PackageOf(filename string) *Package { return p.filePkg[filename] }

// Callers returns the reverse adjacency of the call graph: for every
// declared function, the nodes that (may) call it. Callees without a node
// (standard library) are omitted.
func (p *Program) Callers() map[*FuncNode][]*FuncNode {
	rev := make(map[*FuncNode][]*FuncNode)
	for _, n := range p.Nodes {
		seen := make(map[*FuncNode]bool, len(n.Calls))
		for _, c := range n.Calls {
			callee := p.Node(c.Callee)
			if callee == nil || seen[callee] {
				continue
			}
			seen[callee] = true
			rev[callee] = append(rev[callee], n)
		}
	}
	return rev
}

// BuildProgram constructs the program view and its call graph over the
// loaded packages. All packages must share one FileSet (Load guarantees
// this).
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		funcs:   make(map[string]*FuncNode),
		filePkg: make(map[string]*Package),
		Pkgs:    pkgs,
	}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	}

	// Pass 1: register every declared function/method with a body.
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			p.filePkg[pkg.Fset.Position(f.Pos()).Filename] = pkg
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
				p.funcs[fn.FullName()] = node
				p.Nodes = append(p.Nodes, node)
			}
		}
	}

	resolver := newIfaceResolver(pkgs)

	// Pass 2: resolve every call expression in every body.
	for _, node := range p.Nodes {
		n := node
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			n.Calls = append(n.Calls, resolveCall(n.Pkg, call, resolver)...)
			return true
		})
	}
	return p
}

// resolveCall maps one call expression to its CallSites: one direct edge,
// or one edge per implementation for interface dispatch, or none for
// conversions, builtins, and dynamic calls of function values.
func resolveCall(pkg *Package, call *ast.CallExpr, r *ifaceResolver) []CallSite {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.TypesInfo.Uses[fun].(*types.Func); ok {
			return []CallSite{{Pos: call.Pos(), Callee: fn}}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.TypesInfo.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			m, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if types.IsInterface(sel.Recv()) {
				var out []CallSite
				for _, impl := range r.implementations(sel.Recv(), m) {
					out = append(out, CallSite{Pos: call.Pos(), Callee: impl, Iface: true})
				}
				return out
			}
			return []CallSite{{Pos: call.Pos(), Callee: m}}
		}
		// No selection: a qualified identifier (pkg.F).
		if fn, ok := pkg.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return []CallSite{{Pos: call.Pos(), Callee: fn}}
		}
	}
	return nil
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// ifaceResolver answers "which declared methods could this interface call
// dispatch to". It considers only interfaces declared in the loaded
// packages and only concrete named types declared in them, which is the
// closed world the module controls.
type ifaceResolver struct {
	// concrete lists every non-interface named type declared in the
	// program, in deterministic order.
	concrete []types.Type
	cache    map[ifaceKey][]*types.Func
}

type ifaceKey struct {
	iface  *types.Interface
	method string
}

func newIfaceResolver(pkgs []*Package) *ifaceResolver {
	r := &ifaceResolver{cache: make(map[ifaceKey][]*types.Func)}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if types.IsInterface(t) {
				continue
			}
			r.concrete = append(r.concrete, t)
		}
	}
	return r
}

// implementations returns the declared methods matching the interface
// method m on every program type satisfying the interface. Interfaces
// declared outside the program resolve to nothing (open world).
func (r *ifaceResolver) implementations(recv types.Type, m *types.Func) []*types.Func {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	if named, ok := recv.(*types.Named); ok {
		if pkg := named.Obj().Pkg(); pkg == nil || !moduleLocal(pkg.Path()) {
			return nil
		}
	} else {
		// Anonymous interface types: resolve only when they come from a
		// module source file, which we cannot cheaply prove — skip.
		return nil
	}
	key := ifaceKey{iface: iface, method: m.Name()}
	if out, ok := r.cache[key]; ok {
		return out
	}
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	for _, t := range r.concrete {
		if !types.Implements(t, iface) && !types.Implements(types.NewPointer(t), iface) {
			continue
		}
		// m.Pkg() scopes the lookup so unexported interface methods match
		// only same-package implementations, as the language requires.
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok && !seen[fn] {
			seen[fn] = true
			out = append(out, fn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	r.cache[key] = out
	return out
}

// moduleLocal reports whether an import path belongs to this module (or a
// fixture loaded from it) rather than the standard library.
func moduleLocal(path string) bool {
	return path == "ahq" || pathIn(path, "ahq")
}
