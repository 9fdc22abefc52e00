package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Unused reports declarations no program code reaches: package-level
// functions, methods, types, constants and variables (exported or not),
// and the exported fields of package-level struct types, that no
// non-test file of the loaded program references. Tests are not loaded,
// so a declaration only tests call is reported too: it is dead, or it is
// kept for a reason the allow annotation states (public API through the
// root facade, a reference implementation tests compare against, a caller
// in the separate perfbench module).
//
// References are keyed by full name ("pkg/path.Name", "(pkg/path.T).M",
// "pkg/path.T.Field"), not by object identity, because a package's own
// declarations and its importers' view of them come from different
// type-checks (source vs export data; DESIGN.md §9). A declaration's
// references to itself (a recursive call, a method's receiver type) do
// not count. A method is also used when its type satisfies an interface
// the program mentions, since a dynamic call names only the interface
// method, or when the standard library calls it by name (String, Error,
// Format, Marshal*, Unmarshal*).
var Unused = &Analyzer{
	Name: "unused",
	Doc: "package-level declarations and exported struct fields must be " +
		"referenced by some non-test file of the module",
	AppliesTo:  unusedInScope,
	RunProgram: runUnused,
}

// unusedInScope skips the root facade package (its declarations are the
// public API), the test-helper packages (they exist to be called from
// tests), and every lint fixture but the analyzer's own.
func unusedInScope(pkgPath string) bool {
	if pkgPath == "ahq" || pathIn(pkgPath, "ahq/internal/lint/linttest", "ahq/internal/sched/schedtest") {
		return false
	}
	return !pathIn(pkgPath, "ahq/internal/lint/testdata/src") || pathIn(pkgPath, "ahq/internal/lint/testdata/src/unused")
}

// unusedDecl is one candidate declaration.
type unusedDecl struct {
	ident     *ast.Ident
	kind, key string
}

func runUnused(pass *ProgramPass) {
	var decls []unusedDecl
	var named []*types.Named
	used := make(map[string]bool)
	ifaces := make(map[*types.Interface]bool)
	for _, pkg := range pass.Prog.Pkgs {
		info := pkg.TypesInfo
		for _, f := range pkg.Syntax {
			for _, d := range f.Decls {
				// Each function and each spec of a declaration group is
				// its own unit: only a unit's references to what it
				// declares itself are self-references.
				units, tok := []ast.Node{d}, token.FUNC
				var recv ast.Node
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					recv = fd.Recv
				}
				if gd, ok := d.(*ast.GenDecl); ok {
					units, tok = units[:0], gd.Tok
					for _, s := range gd.Specs {
						units = append(units, s)
					}
				}
				for _, u := range units {
					self := declare(pkg, u, tok, &decls, &named)
					ast.Inspect(u, func(n ast.Node) bool {
						k := ""
						switch n := n.(type) {
						case *ast.FieldList:
							return n != recv
						case *ast.Ident:
							k = refKey(info.Uses[n])
						case *ast.SelectorExpr:
							if sel, ok := info.Selections[n]; ok {
								k = selectionKey(sel)
							}
						case *ast.CompositeLit:
							markLiteralFields(info, n, used)
						}
						if k != "" && !self[k] {
							used[k] = true
						}
						return true
					})
				}
			}
		}
		for _, tv := range info.Types {
			collectIfaces(tv.Type, ifaces, 0)
		}
	}

	// Methods reached by dynamic dispatch or by name. The method set of *T
	// holds promoted methods under their declaring type, so an embedder
	// that satisfies an interface marks the embedded type's method.
	for _, t := range named {
		ptr := types.NewPointer(t)
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			if name := ms.At(i).Obj().Name(); name == "String" || name == "Error" || name == "Format" ||
				strings.HasPrefix(name, "Marshal") || strings.HasPrefix(name, "Unmarshal") {
				used[refKey(ms.At(i).Obj())] = true
			}
		}
		for it := range ifaces {
			for _, fn := range implementsByName(ptr, it) {
				used[refKey(fn)] = true
			}
		}
	}

	for _, d := range decls {
		if !used[d.key] {
			pass.Reportf(d.ident.Pos(), "%s %s is unused: no non-test file of the module references it", d.kind, d.ident.Name)
		}
	}
}

// declare appends the candidates a function or spec declares and returns
// the keys of everything it declares: its references to those are
// self-references. tok is the token of the spec's declaration group.
func declare(pkg *Package, u ast.Node, tok token.Token, decls *[]unusedDecl, named *[]*types.Named) map[string]bool {
	self := make(map[string]bool)
	add := func(id *ast.Ident, kind, key string) {
		self[key] = true
		if id.Name != "_" {
			*decls = append(*decls, unusedDecl{ident: id, kind: kind, key: key})
		}
	}
	defs := pkg.TypesInfo.Defs
	switch u := u.(type) {
	case *ast.FuncDecl:
		switch {
		case u.Recv != nil:
			add(u.Name, "method", refKey(defs[u.Name]))
		case u.Name.Name != "init" && (u.Name.Name != "main" || pkg.Types.Name() != "main"):
			add(u.Name, "func", refKey(defs[u.Name]))
		}
	case *ast.TypeSpec:
		tn := defs[u.Name].(*types.TypeName)
		add(u.Name, "type", refKey(tn))
		if tn.IsAlias() {
			break
		}
		if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
			*named = append(*named, n)
		}
		if st, ok := u.Type.(*ast.StructType); ok {
			for _, fld := range st.Fields.List {
				for _, id := range fld.Names {
					if id.IsExported() {
						add(id, "field", refKey(tn)+"."+id.Name)
					}
				}
			}
		}
	case *ast.ValueSpec:
		kind := "var"
		if tok == token.CONST {
			kind = "const"
		}
		for _, id := range u.Names {
			add(id, kind, refKey(defs[id]))
		}
	}
	return self
}

// refKey returns the key an object is referenced by: functions and methods
// by full name, package-level types, constants and variables by package
// path and name, "" for anything else (locals, fields, builtins).
func refKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin().FullName()
	}
	if _, ok := obj.(*types.PkgName); !ok && obj.Pkg().Scope().Lookup(obj.Name()) == obj {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return ""
}

// selectionKey returns the key of a selected method or field. A field is
// keyed by the named struct type that declares it, found by walking the
// selection's embedding path from the receiver.
func selectionKey(sel *types.Selection) string {
	if sel.Kind() != types.FieldVal {
		return refKey(sel.Obj())
	}
	t := sel.Recv()
	idx := sel.Index()
	for _, i := range idx[:len(idx)-1] {
		st, ok := deref(t).Underlying().(*types.Struct)
		if !ok {
			return ""
		}
		t = st.Field(i).Type()
	}
	if n, ok := deref(t).(*types.Named); ok {
		return refKey(n.Origin().Obj()) + "." + sel.Obj().Name()
	}
	return ""
}

// markLiteralFields marks the fields a struct literal sets: the keyed
// ones, or every field of an unkeyed literal.
func markLiteralFields(info *types.Info, lit *ast.CompositeLit, used map[string]bool) {
	n, ok := deref(info.Types[lit].Type).(*types.Named)
	if !ok {
		return
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return
	}
	owner := refKey(n.Origin().Obj()) + "."
	for _, e := range lit.Elts {
		kv, ok := e.(*ast.KeyValueExpr)
		if !ok {
			for i := 0; i < st.NumFields(); i++ {
				used[owner+st.Field(i).Name()] = true
			}
			return
		}
		if id, ok := kv.Key.(*ast.Ident); ok {
			used[owner+id.Name] = true
		}
	}
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// collectIfaces gathers the non-empty interfaces a type mentions, through
// composite types and function signatures: an argument passed to an
// interface parameter converts implicitly, naming the interface nowhere.
func collectIfaces(t types.Type, out map[*types.Interface]bool, depth int) {
	if t == nil || depth > 3 {
		return
	}
	switch u := t.(type) {
	case *types.Pointer:
		collectIfaces(u.Elem(), out, depth+1)
	case *types.Slice:
		collectIfaces(u.Elem(), out, depth+1)
	case *types.Array:
		collectIfaces(u.Elem(), out, depth+1)
	case *types.Map:
		collectIfaces(u.Key(), out, depth+1)
		collectIfaces(u.Elem(), out, depth+1)
	case *types.Chan:
		collectIfaces(u.Elem(), out, depth+1)
	case *types.Signature:
		for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
			for i := 0; i < tup.Len(); i++ {
				collectIfaces(tup.At(i).Type(), out, depth+1)
			}
		}
	default:
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out[it] = true
		}
	}
}

// implementsByName returns the methods of t that implement it, or nil if t
// does not implement it. Methods match by name and by parameter and result
// types spelled with full package paths, which agree across the source and
// export-data views of a package where types.Implements would compare
// distinct but equal types.
func implementsByName(t types.Type, it *types.Interface) []*types.Func {
	impl := make([]*types.Func, 0, it.NumMethods())
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name())
		fn, ok := obj.(*types.Func)
		if !ok || sigKey(fn) != sigKey(m) {
			return nil
		}
		impl = append(impl, fn)
	}
	return impl
}

// sigKey spells a signature's parameter and result types, without names.
func sigKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	var b strings.Builder
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tup.Len(); i++ {
			b.WriteString(types.TypeString(tup.At(i).Type(), nil) + ",")
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
