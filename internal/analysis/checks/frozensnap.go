package checks

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
)

// Frozensnap enforces the frozen-snapshot certification discipline from
// core/doc.go: worker goroutines spawned during batch certification read
// a snapshot of the spanner-so-far and must not mutate any captured
// shared state — the snapshot graph, the result, the hub oracle, the
// bound store. Workers communicate exclusively through owner-indexed
// slots (errs[w], certified[i]) so no two goroutines touch the same
// element and the join can merge results deterministically.
//
// Inside every `go func` literal the analyzer flags: (a) assignments and
// ++/-- on captured variables or fields of captured variables; (b)
// element writes through a captured slice or map when any index on the
// access path is itself captured (an owner-indexed write uses only the
// literal's own parameters and locals as indices); (c) method calls on
// captured values of the engine's shared snapshot types, unless the
// method is in the read-only allowlist. The same rules apply one call
// level down, to the in-package functions and methods a worker literal
// calls — for a call through an interface, every in-package
// implementation — where the receiver and package state are the shared
// side and the callee's parameters and locals are the worker's own.
// Writes that are genuinely safe (e.g. a fold row owned by exactly one
// worker) carry a //spannerlint:ignore frozensnap <reason> annotation.
var Frozensnap = &framework.Analyzer{
	Name:  "frozensnap",
	Doc:   "worker closures in batch certification must not write captured snapshot state",
	Scope: []string{"internal/core"},
	Run:   runFrozensnap,
}

// frozenTypes are the named types that constitute shared snapshot state
// during certification.
var frozenTypes = map[string]bool{
	"Graph":              true,
	"Result":             true,
	"HubOracle":          true,
	"boundStore":         true,
	"IncrementalSpanner": true,
	"Stats":              true,
	"FaultTolerantStats": true,
}

// frozenReadOnly are methods on frozen types that only observe state.
var frozenReadOnly = map[string]bool{
	"N": true, "M": true, "Edges": true, "EdgesCopy": true,
	"Neighbors": true, "EdgeWeight": true, "SortedEdges": true,
	"Certify": true, "CertifyAvoiding": true, "Hubs": true,
	"Relaxed": true, "Epoch": true, "Reselected": true,
	"countRows": true, "get": true, "Size": true, "Graph": true,
	"MaxDegree": true, "Lightness": true, "Weight": true,
	"Stretch": true, "verifyPair": true, "PeakBucket": true,
}

func runFrozensnap(pass *framework.Pass) error {
	info := pass.Unit.Info
	var decls []*ast.FuncDecl
	for _, f := range pass.Unit.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	followed := make(map[*ast.FuncDecl]bool)
	for _, f := range pass.Unit.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := gs.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			checkWorker(pass, info, "worker closure", lit.Body, func(obj types.Object) bool {
				return lit.Pos() <= obj.Pos() && obj.Pos() <= lit.End()
			})
			for _, fd := range callees(info, lit.Body, decls) {
				if followed[fd] {
					continue
				}
				followed[fd] = true
				params := fd.Type.Params.Pos() // after the receiver, which is shared
				checkWorker(pass, info, "worker callee "+fd.Name.Name, fd.Body, func(obj types.Object) bool {
					return params <= obj.Pos() && obj.Pos() <= fd.End()
				})
			}
			// Nested go statements inside the literal are visited again by
			// the outer Inspect; their own literals get their own pass.
			return true
		})
	}
	return nil
}

// callees lists, in declaration order, the in-package declarations a
// worker body calls directly: functions named by a plain identifier,
// concrete methods, and every implementation of an interface method.
func callees(info *types.Info, body *ast.BlockStmt, decls []*ast.FuncDecl) []*ast.FuncDecl {
	var called []*types.Func
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if f, ok := calledIdent(info, call).(*types.Func); ok {
			called = append(called, f)
		} else if m := calledMethod(info, call); m != nil {
			called = append(called, m)
		}
		return true
	})
	var out []*ast.FuncDecl
	for _, fd := range decls {
		fn, ok := info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		for _, c := range called {
			if implementsMethod(fn, c) {
				out = append(out, fd)
				break
			}
		}
	}
	return out
}

// checkWorker walks one worker body: a go literal's, or that of a
// function a worker literal calls. Locality is positional: local reports
// whether an object is declared in the worker's own scope (parameters
// included), which makes it the worker's own; everything else is
// captured.
func checkWorker(pass *framework.Pass, info *types.Info, subject string, body *ast.BlockStmt, local func(types.Object) bool) {
	capturedVar := func(id *ast.Ident) types.Object {
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if v, ok := obj.(*types.Var); ok && !v.IsField() && !local(obj) {
			return obj
		}
		return nil
	}

	flagWrite := func(pos token.Pos, lhs ast.Expr) {
		var obj types.Object
		root := rootIdent(lhs)
		if root != nil {
			obj = capturedVar(root)
		}
		if obj == nil {
			// A field of a frozen type reached through a pointer is shared
			// state whatever the path's root is, so a local alias of a
			// captured pointer cannot launder the write.
			if sel, ok := lhs.(*ast.SelectorExpr); ok {
				if p, ok := types.Unalias(info.TypeOf(sel.X)).(*types.Pointer); ok && frozenTypes[namedTypeName(p)] {
					pass.Reportf(pos, "%s writes field %s of frozen %s: snapshot state is frozen during certification", subject, sel.Sel.Name, namedTypeName(p))
				}
			}
			return
		}
		switch lhs := lhs.(type) {
		case *ast.Ident:
			pass.Reportf(pos, "%s writes captured variable %s: workers must only write owner-indexed slots", subject, root.Name)
		case *ast.SelectorExpr:
			pass.Reportf(pos, "%s writes field %s of captured %s: snapshot state is frozen during certification", subject, lhs.Sel.Name, root.Name)
		case *ast.StarExpr:
			pass.Reportf(pos, "%s writes through captured pointer %s: snapshot state is frozen during certification", subject, root.Name)
		default:
			// Indexed write: owner-indexed (all indices local) is the
			// sanctioned communication channel; a captured index means two
			// workers can collide on the same slot.
			if !allIndicesLocal(info, lhs, local) {
				pass.Reportf(pos, "%s writes %s through a non-owner index: workers may only write slots indexed by their own parameters and locals", subject, exprString(lhs))
			}
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				flagWrite(n.TokPos, lhs)
			}
		case *ast.IncDecStmt:
			flagWrite(n.TokPos, n.X)
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			root := rootIdent(sel.X)
			if root == nil {
				return true
			}
			obj := capturedVar(root)
			if obj == nil || frozenReadOnly[sel.Sel.Name] {
				return true
			}
			// The method's own receiver type decides, so a frozen value
			// reached through a field of a non-frozen root is caught too.
			tname := namedTypeName(info.TypeOf(sel.X))
			if !frozenTypes[tname] {
				tname = namedTypeName(obj.Type())
			}
			if frozenTypes[tname] {
				pass.Reportf(n.Pos(), "%s calls %s on captured %s state: certification snapshots are frozen; only read-only methods are allowed", subject, exprString(sel), tname)
			}
		}
		return true
	})
}

// allIndicesLocal walks the selector/index chain of an lvalue and
// reports whether every index expression is a worker-local identifier or
// a constant.
func allIndicesLocal(info *types.Info, e ast.Expr, local func(types.Object) bool) bool {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			if !indexIsLocal(info, x.Index, local) {
				return false
			}
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return true
		}
	}
}

// indexIsLocal accepts constants, worker-local identifiers, and simple
// arithmetic over them (i+1, start+k).
func indexIsLocal(info *types.Info, idx ast.Expr, local func(types.Object) bool) bool {
	ok := true
	ast.Inspect(idx, func(n ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent {
			return ok
		}
		obj := info.Uses[id]
		if obj == nil {
			return ok
		}
		if v, isVar := obj.(*types.Var); isVar && !v.IsField() && !local(obj) {
			ok = false
		}
		return ok
	})
	return ok
}
