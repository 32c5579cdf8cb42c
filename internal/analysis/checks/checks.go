// Package checks holds the spannerlint analyzers: one
// framework.Analyzer per machine-checked soundness invariant of the
// spanner engines. The invariants themselves are stated in
// internal/core/doc.go and internal/persist/doc.go; each analyzer's Doc
// names the one it enforces. Registry order is reporting order.
package checks

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/framework"
)

// All returns the full spannerlint suite in reporting order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		Mapdet,
		Ctxcommit,
		Srvctx,
		Frozensnap,
		Fsyncrename,
		Detpure,
		Errtyped,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *framework.Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// rootIdent unwraps selector/index/star/paren chains to the base
// identifier an lvalue or receiver expression is rooted at; nil when the
// base is not a plain identifier (a call result, a composite literal).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// pkgCall reports whether call invokes pkgPath.name through a plain
// package selector (e.g. os.Rename, time.Now), resolved through the type
// info rather than the source text, so aliased imports still match.
func pkgCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// calledMethodName returns the method name of a call through a selector
// ("" for plain function calls).
func calledMethodName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}

// calledIdent returns the object of a call through a plain identifier
// (package-level function or closure variable), or nil.
func calledIdent(info *types.Info, call *ast.CallExpr) types.Object {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
}

// calledMethod returns the method a selector call invokes — for a call
// through an interface, the interface's abstract method — or nil.
func calledMethod(info *types.Info, call *ast.CallExpr) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return nil
	}
	f, _ := s.Obj().(*types.Func)
	return f
}

// implementsMethod reports whether impl is a concrete method that can
// run for a call of m: m itself, or — when m is an interface method — a
// method of the same name whose receiver type implements m's interface.
func implementsMethod(impl, m *types.Func) bool {
	if impl == m {
		return true
	}
	if impl.Name() != m.Name() {
		return false
	}
	recv, irecv := m.Type().(*types.Signature).Recv(), impl.Type().(*types.Signature).Recv()
	if recv == nil || irecv == nil {
		return false
	}
	iface, ok := recv.Type().Underlying().(*types.Interface)
	return ok && (types.Implements(irecv.Type(), iface) || types.Implements(types.NewPointer(irecv.Type()), iface))
}

// namedTypeName returns the (pointer-stripped, alias-resolved) named
// type's name, or "".
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// eachStmtList visits every statement list of f's body — block bodies and
// switch/select clause bodies — so analyzers can reason about statement
// order within one list.
func eachStmtList(body *ast.BlockStmt, visit func(stmts []ast.Stmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			visit(n.List)
		case *ast.CaseClause:
			visit(n.Body)
		case *ast.CommClause:
			visit(n.Body)
		}
		return true
	})
}

// usesObject reports whether any identifier under n resolves to one of
// the given objects.
func usesObject(info *types.Info, n ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok && objs[info.Uses[id]] {
			found = true
			return false
		}
		return !found
	})
	return found
}

// eachFunc visits every function body in the file: declarations and
// literals, with the enclosing *ast.FuncDecl when there is one (nil for
// literals outside any declaration, e.g. package-level var initializers).
func eachFunc(f *ast.File, visit func(decl *ast.FuncDecl, body *ast.BlockStmt)) {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			visit(fd, fd.Body)
		}
	}
}

// containsCallNamed reports whether n's subtree calls a method or
// function whose bare name is in names.
func containsCallNamed(n ast.Node, names map[string]bool) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return !found
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if names[fun.Sel.Name] {
				found = true
			}
		case *ast.Ident:
			if names[fun.Name] {
				found = true
			}
		}
		return !found
	})
	return found
}

// exprString renders an expression for diagnostics.
func exprString(e ast.Expr) string { return types.ExprString(e) }
