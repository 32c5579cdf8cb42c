package checks

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/framework"
)

// Srvctx enforces the serving-layer cancellation contract: an HTTP
// handler must thread its request context into every engine call it
// makes. The server's reads run bounded graph searches against the
// published snapshot, and its mutations drive the durable engine; both
// outlive a disconnected client unless the request context reaches the
// engine's cooperative-cancellation machinery. Concretely:
//
//   - A searcher query (DistanceWithin, BidirDistanceWithin, PathWithin,
//     ...) must be preceded, in the same statement list, by a SetStop
//     call installing a non-nil stop predicate — that predicate is how
//     the request deadline reaches the search loop.
//   - The query's results must not be used before a statement consults
//     ctx.Err(): a search stopped mid-flight returns a truncated answer,
//     and serving it would hand the client a wrong distance instead of a
//     typed cancellation.
//   - In a handler (a function taking *http.Request), a durable mutation
//     (AppendPoints, InsertRows, Delete, InsertEdges, DeleteEdges,
//     Checkpoint on persist.Durable, directly or through a helper that
//     wraps one) must be preceded, in the same statement list, by a
//     SetContext call whose argument is not context.Background() — that
//     is how the mutation deadline reaches the engine's flush.
//
// Post-durability convergence (Server.converge) deliberately runs under
// a background context — the op is already logged, so abandoning the
// repair with the client would leave the engine behind the WAL — and is
// out of scope here: Flush is not a guarded call.
var Srvctx = &framework.Analyzer{
	Name:  "srvctx",
	Doc:   "server handlers must thread the request context into every engine call: searcher queries need a stop predicate and a ctx.Err re-check, durable mutations need SetContext with the request context",
	Scope: []string{"internal/server"},
	Run:   runSrvctx,
}

// srvQueryMethods are the bounded-search methods served on the read path.
var srvQueryMethods = map[string]bool{
	"DistanceWithin":         true,
	"BidirDistanceWithin":    true,
	"PathWithin":             true,
	"DistanceWithinAvoiding": true,
	"DistanceWithinMasked":   true,
}

// durableMutators are the persist.Durable methods that append to the WAL
// and drive the engine.
var durableMutators = map[string]bool{
	"AppendPoints": true,
	"InsertRows":   true,
	"Delete":       true,
	"InsertEdges":  true,
	"DeleteEdges":  true,
	"Checkpoint":   true,
}

func runSrvctx(pass *framework.Pass) error {
	info := pass.Unit.Info
	mutateLike := collectMutateLike(pass)
	for _, f := range pass.Unit.Files {
		eachFunc(f, func(fd *ast.FuncDecl, body *ast.BlockStmt) {
			eachStmtList(body, func(stmts []ast.Stmt) {
				checkQueryStops(pass, info, stmts)
			})
			if isHandlerFunc(info, fd) {
				eachStmtList(body, func(stmts []ast.Stmt) {
					checkMutationContexts(pass, info, stmts, mutateLike)
				})
			}
		})
	}
	return nil
}

// collectMutateLike finds package functions and methods whose body calls
// a durable mutator, so hiding the mutation behind one helper level
// (Server.applyMutation) does not evade the handler rule.
func collectMutateLike(pass *framework.Pass) map[types.Object]bool {
	info := pass.Unit.Info
	out := make(map[types.Object]bool)
	for _, f := range pass.Unit.Files {
		eachFunc(f, func(fd *ast.FuncDecl, body *ast.BlockStmt) {
			found := false
			ast.Inspect(body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isDurableMutatorCall(info, call) {
					found = true
				}
				return !found
			})
			if found {
				if obj := info.Defs[fd.Name]; obj != nil {
					out[obj] = true
				}
			}
		})
	}
	return out
}

// isDurableMutatorCall recognizes a mutator method call on a value whose
// named type is Durable.
func isDurableMutatorCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !durableMutators[sel.Sel.Name] {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return false
	}
	return namedTypeName(tv.Type) == "Durable"
}

// isHandlerFunc reports whether fd takes a *http.Request parameter.
func isHandlerFunc(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, p := range fd.Type.Params.List {
		tv, ok := info.Types[p.Type]
		if !ok || tv.Type == nil {
			continue
		}
		t := tv.Type
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			obj := n.Obj()
			if obj.Name() == "Request" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http" {
				return true
			}
		}
	}
	return false
}

// checkQueryStops applies both read-path rules to one statement list.
func checkQueryStops(pass *framework.Pass, info *types.Info, stmts []ast.Stmt) {
	for i, stmt := range stmts {
		call, results := queryAssignment(info, stmt)
		if call == nil {
			continue
		}
		if !stopInstalledBefore(stmts[:i]) {
			pass.Reportf(call.Pos(), "searcher query %s without a preceding SetStop stop predicate: install one derived from the request context so the search is cancellable", exprString(call.Fun))
		}
		for _, later := range stmts[i+1:] {
			if containsCallNamed(later, map[string]bool{"Err": true}) {
				break
			}
			if usesObject(info, later, results) {
				pass.Reportf(call.Pos(), "searcher result served without re-checking the request context: consult ctx.Err() between %s and the response (a truncated search must never answer)", exprString(call.Fun))
				break
			}
		}
	}
}

// queryAssignment recognizes `a, b := sr.Query(...)` for a served query
// method and returns the call plus the result objects.
func queryAssignment(info *types.Info, stmt ast.Stmt) (*ast.CallExpr, map[types.Object]bool) {
	asg, ok := stmt.(*ast.AssignStmt)
	if !ok || len(asg.Rhs) != 1 {
		return nil, nil
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || !srvQueryMethods[calledMethodName(call)] {
		return nil, nil
	}
	results := make(map[types.Object]bool)
	for _, lhs := range asg.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != nil {
			results[obj] = true
		}
	}
	return call, results
}

// stopInstalledBefore scans backwards for the nearest statement carrying
// a SetStop call and requires its argument to be non-nil; a query with
// no stop predicate in scope (or one explicitly cleared) runs unbounded.
func stopInstalledBefore(before []ast.Stmt) bool {
	for i := len(before) - 1; i >= 0; i-- {
		if call := findCallNamed(before[i], "SetStop"); call != nil {
			return len(call.Args) != 1 || !isNilIdent(call.Args[0])
		}
	}
	return false
}

// checkMutationContexts requires a live SetContext before any durable
// mutation issued from a handler's statement list.
func checkMutationContexts(pass *framework.Pass, info *types.Info, stmts []ast.Stmt, mutateLike map[types.Object]bool) {
	for i, stmt := range stmts {
		call := mutationCall(info, stmt, mutateLike)
		if call == nil {
			continue
		}
		if !liveContextBefore(info, stmts[:i]) {
			pass.Reportf(call.Pos(), "durable mutation %s in a handler without SetContext(ctx): thread the request context into the engine before mutating", exprString(call.Fun))
		}
	}
}

// mutationCall returns the first durable-mutator or mutate-like call in
// stmt, or nil.
func mutationCall(info *types.Info, stmt ast.Stmt, mutateLike map[types.Object]bool) *ast.CallExpr {
	var out *ast.CallExpr
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return out == nil
		}
		if isDurableMutatorCall(info, call) {
			out = call
			return false
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if mutateLike[info.Uses[fun]] {
				out = call
			}
		case *ast.SelectorExpr:
			if mutateLike[info.Uses[fun.Sel]] {
				out = call
			}
		}
		return out == nil
	})
	return out
}

// liveContextBefore scans backwards for the nearest SetContext call and
// requires its argument not to be context.Background().
func liveContextBefore(info *types.Info, before []ast.Stmt) bool {
	for i := len(before) - 1; i >= 0; i-- {
		if call := findCallNamed(before[i], "SetContext"); call != nil {
			if len(call.Args) != 1 {
				return false
			}
			if bg, ok := call.Args[0].(*ast.CallExpr); ok && pkgCall(info, bg, "context", "Background") {
				return false
			}
			return true
		}
	}
	return false
}

// findCallNamed returns the first call in stmt whose bare callee name is
// name, or nil.
func findCallNamed(stmt ast.Stmt, name string) *ast.CallExpr {
	var out *ast.CallExpr
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return out == nil
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if fun.Sel.Name == name {
				out = call
			}
		case *ast.Ident:
			if fun.Name == name {
				out = call
			}
		}
		return out == nil
	})
	return out
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
