package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// LockCheck enforces documented lock discipline. A struct field whose
// declaration carries the comment
//
//	// guarded by <name>
//
// (trailing on the field line, or in the doc comment above it) may only
// be read or written inside function bodies that visibly acquire the
// guard. <name> must be a sibling field of the same struct; three guard
// disciplines are recognised from the sibling's type:
//
//   - sync.Mutex / sync.RWMutex: the body must call <recv>.<name>.Lock()
//     or, for reads only, <recv>.<name>.RLock(). Writes under RLock are
//     reported.
//   - sync.Once: the access must occur lexically inside the callback
//     passed to <recv>.<name>.Do(...), or the body must call it — the
//     once-body is the only writer, and readers are safe only after Do
//     returns, which the analyzer approximates by requiring the Do call
//     in the same body.
//   - channels: the body must close(<recv>.<name>) (the publisher) or
//     receive from it (<-<recv>.<name>, the synchronised reader) before
//     the access — the happens-before edge of a close/receive pair.
//
// The analysis is intraprocedural: a function that takes the lock and
// calls a helper that touches the field does not transfer the guard to
// the helper. Helpers that rely on "caller holds mu" document it with an
// //ahqlint:allow lockcheck annotation, which keeps the convention
// greppable.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc: "fields commented `// guarded by <mu>` may only be accessed in " +
		"function bodies that acquire <mu> (intraprocedural)",
	Run: runLockCheck,
}

var guardedByRe = regexp.MustCompile(`//\s*guarded by (\w+)\b`)

// guardKind is the synchronisation discipline a guard field implies.
type guardKind int

const (
	guardMutex   guardKind = iota // sync.Mutex: Lock only
	guardRWMutex                  // sync.RWMutex: Lock, or RLock for reads
	guardOnce                     // sync.Once: inside or after Do
	guardChan                     // channel: close/receive happens-before
)

// guardedField records one `// guarded by` declaration.
type guardedField struct {
	field     *types.Var // the protected field
	guardName string
	kind      guardKind
}

func runLockCheck(pass *Pass) {
	guards := collectGuardedFields(pass)
	if len(guards) == 0 {
		return
	}
	byField := make(map[*types.Var]*guardedField, len(guards))
	for _, g := range guards {
		byField[g.field] = g
	}

	for _, f := range pass.Pkg.Syntax {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockBody(pass, fd, byField)
		}
	}
}

// collectGuardedFields finds every `// guarded by <name>` field comment in
// the package and resolves the protected field and its guard sibling.
func collectGuardedFields(pass *Pass) []*guardedField {
	var out []*guardedField
	for _, f := range pass.Pkg.Syntax {
		ast.Inspect(f, func(x ast.Node) bool {
			st, ok := x.(*ast.StructType)
			if !ok {
				return true
			}
			tv, ok := pass.Pkg.TypesInfo.Types[st]
			if !ok {
				return true
			}
			styp, ok := tv.Type.(*types.Struct)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				guardName := fieldGuardName(fld)
				if guardName == "" {
					continue
				}
				guard := lookupStructField(styp, guardName)
				if guard == nil {
					pass.Reportf(fld.Pos(),
						"`// guarded by %s` names no sibling field of this struct", guardName)
					continue
				}
				kind, ok := classifyGuard(guard.Type())
				if !ok {
					pass.Reportf(fld.Pos(),
						"guard field %s has type %s; guards must be sync.Mutex, sync.RWMutex, sync.Once, or a channel",
						guardName, guard.Type())
					continue
				}
				// One ast field entry may declare several names (a, b T).
				for _, name := range fld.Names {
					v := structVarNamed(styp, name.Name)
					if v == nil {
						continue
					}
					out = append(out, &guardedField{field: v, guardName: guardName, kind: kind})
				}
			}
			return true
		})
	}
	return out
}

// fieldGuardName extracts the guard name from a field's trailing or doc
// comment, or "".
func fieldGuardName(fld *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{fld.Comment, fld.Doc} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if m := guardedByRe.FindStringSubmatch(c.Text); m != nil {
				return m[1]
			}
		}
	}
	return ""
}

func lookupStructField(s *types.Struct, name string) *types.Var {
	return structVarNamed(s, name)
}

func structVarNamed(s *types.Struct, name string) *types.Var {
	for i := 0; i < s.NumFields(); i++ {
		if s.Field(i).Name() == name {
			return s.Field(i)
		}
	}
	return nil
}

// classifyGuard maps a guard field's type to its discipline.
func classifyGuard(t types.Type) (guardKind, bool) {
	if _, ok := t.Underlying().(*types.Chan); ok {
		return guardChan, true
	}
	named, ok := t.(*types.Named)
	if !ok {
		return 0, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return 0, false
	}
	switch obj.Name() {
	case "Mutex":
		return guardMutex, true
	case "RWMutex":
		return guardRWMutex, true
	case "Once":
		return guardOnce, true
	}
	return 0, false
}

// fieldAccess is one guarded-field selector found in a body.
type fieldAccess struct {
	sel   *ast.SelectorExpr
	g     *guardedField
	base  string // rendered base expression, e.g. "s" or "c.shards[i]"
	write bool
}

// checkLockBody verifies every guarded-field access in one function body.
func checkLockBody(pass *Pass, fd *ast.FuncDecl, byField map[*types.Var]*guardedField) {
	info := pass.Pkg.TypesInfo

	// Collect accesses and classify reads vs writes.
	writes := collectWriteTargets(fd.Body)
	var accesses []fieldAccess
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		sel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		v, ok := selection.Obj().(*types.Var)
		if !ok {
			return true
		}
		// Origin maps a field of an instantiated generic struct back to the
		// declared field the `// guarded by` comment sits on.
		g, ok := byField[v.Origin()]
		if !ok {
			return true
		}
		accesses = append(accesses, fieldAccess{
			sel:   sel,
			g:     g,
			base:  exprString(sel.X),
			write: writes[sel],
		})
		return true
	})
	if len(accesses) == 0 {
		return
	}

	// Guard-acquisition evidence per (base, guardName), gathered once.
	body := fd.Body
	for _, a := range accesses {
		held, readOnly := guardHeld(pass, body, a)
		switch {
		case !held:
			verb := "read"
			if a.write {
				verb = "write to"
			}
			pass.Reportf(a.sel.Pos(),
				"%s %s.%s without holding %s (%s)", verb, a.base, a.g.field.Name(),
				a.g.guardName, guardHint(a.g.kind))
		case a.write && readOnly:
			pass.Reportf(a.sel.Pos(),
				"write to %s.%s under %s.%s.RLock; writes need the full Lock",
				a.base, a.g.field.Name(), a.base, a.g.guardName)
		}
	}
}

func guardHint(k guardKind) string {
	switch k {
	case guardRWMutex:
		return "call Lock, or RLock for reads"
	case guardOnce:
		return "access it inside or after the sync.Once Do call"
	case guardChan:
		return "close the channel before writing, or receive from it before reading"
	default:
		return "call Lock first"
	}
}

// guardHeld reports whether the body shows acquisition of the access's
// guard for its base expression. readOnly is true when the only evidence
// is an RLock (shared, read-only) acquisition.
func guardHeld(pass *Pass, body *ast.BlockStmt, a fieldAccess) (held, readOnly bool) {
	guardExpr := a.base + "." + a.g.guardName
	switch a.g.kind {
	case guardMutex, guardRWMutex:
		var sawLock, sawRLock bool
		ast.Inspect(body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if exprString(sel.X) != guardExpr {
				return true
			}
			switch sel.Sel.Name {
			case "Lock":
				sawLock = true
			case "RLock":
				sawRLock = true
			}
			return true
		})
		if sawLock {
			return true, false
		}
		if sawRLock && a.g.kind == guardRWMutex {
			return true, true
		}
		return false, false

	case guardOnce:
		found := false
		ast.Inspect(body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if sel.Sel.Name == "Do" && exprString(sel.X) == guardExpr {
				found = true
			}
			return true
		})
		return found, false

	case guardChan:
		found := false
		ast.Inspect(body, func(x ast.Node) bool {
			switch node := x.(type) {
			case *ast.CallExpr:
				// close(x.done) — the publisher side. A deferred close
				// counts: the write happens before the deferred close runs.
				if id, ok := node.Fun.(*ast.Ident); ok && id.Name == "close" && len(node.Args) == 1 {
					if exprString(node.Args[0]) == guardExpr {
						found = true
					}
				}
			case *ast.UnaryExpr:
				// <-x.done — the synchronised reader.
				if node.Op == token.ARROW && exprString(node.X) == guardExpr {
					found = true
				}
			}
			return true
		})
		return found, false
	}
	return false, false
}

// collectWriteTargets marks selector expressions that are assignment
// targets (including op-assign and ++/--) or have their address taken.
func collectWriteTargets(body *ast.BlockStmt) map[*ast.SelectorExpr]bool {
	writes := make(map[*ast.SelectorExpr]bool)
	mark := func(e ast.Expr) {
		e = unparen(e)
		// Writing through an index (m[k] = v on a guarded map or slice
		// field) mutates the guarded structure just the same.
		for {
			idx, ok := e.(*ast.IndexExpr)
			if !ok {
				break
			}
			e = unparen(idx.X)
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			writes[sel] = true
		}
	}
	ast.Inspect(body, func(x ast.Node) bool {
		switch node := x.(type) {
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(node.X)
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				mark(node.X)
			}
		}
		return true
	})
	return writes
}

// exprString renders a small expression (selector chains, index
// expressions, identifiers) to a canonical string for base-expression
// matching. Expressions it cannot render return a unique placeholder so
// they never spuriously match.
func exprString(e ast.Expr) string {
	var b strings.Builder
	if !writeExpr(&b, e) {
		return "<complex>"
	}
	return b.String()
}

func writeExpr(b *strings.Builder, e ast.Expr) bool {
	switch node := unparen(e).(type) {
	case *ast.Ident:
		b.WriteString(node.Name)
		return true
	case *ast.SelectorExpr:
		if !writeExpr(b, node.X) {
			return false
		}
		b.WriteByte('.')
		b.WriteString(node.Sel.Name)
		return true
	case *ast.IndexExpr:
		if !writeExpr(b, node.X) {
			return false
		}
		b.WriteByte('[')
		if !writeExpr(b, node.Index) {
			return false
		}
		b.WriteByte(']')
		return true
	case *ast.BasicLit:
		b.WriteString(node.Value)
		return true
	case *ast.UnaryExpr:
		if node.Op != token.AND {
			return false
		}
		return writeExpr(b, node.X)
	case *ast.StarExpr:
		return writeExpr(b, node.X)
	case *ast.CallExpr:
		return false
	}
	return false
}
