package checks

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/framework"
)

// Ctxcommit enforces the PR 6 cancellation-soundness rule: a truncated
// search must never decide. A bounded search that was cut short by
// cancellation can report "no path within budget" for a pair that is in
// fact within budget; committing a certification decision on that result
// would corrupt the spanner. The engines make this safe by re-checking
// the cancellation predicate between the search call and the first use
// of its result — because the predicate is monotone (once cancelled,
// always cancelled), "not cancelled after the search returned" proves
// the search ran to completion.
//
// Concretely, in any function that participates in cancellation (it
// mentions an env or ctx), an assignment from a bounded-search call
// (Searcher query methods, or local helpers — functions, closures, or
// methods, called directly or through an interface — that wrap one and
// return a non-error result) must be followed — before any statement uses the
// result — by a statement containing a cancellation check (a call to
// cancelled, Err, or active). The analyzer also requires every exported
// engine entry point (Greedy*, FaultTolerant*) to thread a context,
// either as a context.Context parameter, through an options struct with
// a context field, or by delegating in a single return statement to an
// entry point that does.
var Ctxcommit = &framework.Analyzer{
	Name:  "ctxcommit",
	Doc:   "require a cancellation check between a bounded search and the decision that consumes it; engine entry points must thread a context",
	Scope: []string{"internal/core"},
	Run:   runCtxcommit,
}

// valueQueryMethods are the Searcher methods whose boolean/float results
// feed certification decisions directly.
var valueQueryMethods = map[string]bool{
	"DistanceWithin":         true,
	"BidirDistanceWithin":    true,
	"PathWithin":             true,
	"DistanceWithinAvoiding": true,
	"DistanceWithinMasked":   true,
}

// allQueryMethods additionally covers the scratch-filling searches; a
// helper calling any of these and returning a non-error value is itself
// search-like.
var allQueryMethods = map[string]bool{
	"DistanceWithin":         true,
	"BidirDistanceWithin":    true,
	"PathWithin":             true,
	"DistanceWithinAvoiding": true,
	"DistanceWithinMasked":   true,
	"Distances":              true,
	"BoundedDistances":       true,
	"BoundedDistancesMasked": true,
}

// cancelCheckNames are the method names whose presence in a statement
// counts as consulting the cancellation predicate.
var cancelCheckNames = map[string]bool{
	"cancelled": true,
	"Err":       true,
	"active":    true,
}

func runCtxcommit(pass *framework.Pass) error {
	info := pass.Unit.Info
	searchLike := collectSearchLike(pass)
	for _, f := range pass.Unit.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkEntryPoint(pass, fd)
			// Walk every function body (declaration and nested literals)
			// that participates in cancellation.
			forEachFuncBody(fd, func(body *ast.BlockStmt) {
				if !mentionsCancellation(body) {
					return
				}
				checkSearchCommits(pass, info, body, searchLike)
			})
		}
	}
	return nil
}

// collectSearchLike finds package functions, methods, and closures that
// wrap a bounded search: their body calls a Searcher query method and they
// return at least one non-error value. Their call sites are then held to
// the same check-before-commit rule as direct query calls, so hiding a
// search behind one level of helper does not evade the analyzer.
func collectSearchLike(pass *framework.Pass) map[types.Object]bool {
	info := pass.Unit.Info
	out := make(map[types.Object]bool)
	consider := func(obj types.Object, ftype *ast.FuncType, body *ast.BlockStmt) {
		if obj == nil || body == nil || ftype.Results == nil {
			return
		}
		nonError := false
		for _, r := range ftype.Results.List {
			if tv, ok := info.Types[r.Type]; ok && !isErrorType(tv.Type) {
				nonError = true
			}
		}
		if nonError && containsCallNamed(body, allQueryMethods) {
			out[obj] = true
		}
	}
	for _, f := range pass.Unit.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			consider(info.Defs[fd.Name], fd.Type, fd.Body)
			ast.Inspect(fd, func(n ast.Node) bool {
				asg, ok := n.(*ast.AssignStmt)
				if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
					return true
				}
				id, ok := asg.Lhs[0].(*ast.Ident)
				if !ok {
					return true
				}
				lit, ok := asg.Rhs[0].(*ast.FuncLit)
				if !ok {
					return true
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				consider(obj, lit.Type, lit.Body)
				return true
			})
		}
	}
	return out
}

// forEachFuncBody visits fd's own body and the body of every function
// literal nested in it, innermost bodies included.
func forEachFuncBody(fd *ast.FuncDecl, visit func(*ast.BlockStmt)) {
	visit(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			visit(lit.Body)
		}
		return true
	})
}

// mentionsCancellation reports whether the body references a cancellation
// carrier — an identifier named env or ctx. Functions with no carrier in
// scope have nothing to check against; the serial reference
// implementations are exempt this way by construction.
func mentionsCancellation(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && (id.Name == "env" || id.Name == "ctx") {
			found = true
			return false
		}
		return !found
	})
	return found
}

// checkSearchCommits applies the check-before-commit rule to every
// statement list in body. Only the top statement list of each block is
// walked here (nested blocks come back through eachStmtList), so "next
// statement" is well defined.
func checkSearchCommits(pass *framework.Pass, info *types.Info, body *ast.BlockStmt, searchLike map[types.Object]bool) {
	eachStmtList(body, func(stmts []ast.Stmt) {
		for i, stmt := range stmts {
			call, results := searchAssignment(info, stmt, searchLike)
			if call == nil || len(results) == 0 {
				continue
			}
			for _, later := range stmts[i+1:] {
				if containsCallNamed(later, cancelCheckNames) {
					break
				}
				if usesObject(info, later, results) {
					pass.Reportf(call.Pos(), "bounded-search result committed without a cancellation check: consult env.cancelled()/ctx.Err() between %s and the decision (a truncated search must never decide)", exprString(call.Fun))
					break
				}
			}
		}
	})
}

// searchAssignment recognizes `x, y := search(...)` where search is a
// Searcher query method or a search-like helper, returning the call and
// the non-error result objects whose first use must be guarded.
func searchAssignment(info *types.Info, stmt ast.Stmt, searchLike map[types.Object]bool) (*ast.CallExpr, map[types.Object]bool) {
	asg, ok := stmt.(*ast.AssignStmt)
	if !ok || len(asg.Rhs) != 1 {
		return nil, nil
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil, nil
	}
	if !valueQueryMethods[calledMethodName(call)] && !searchLikeCall(info, call, searchLike) {
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
		if obj == nil || isErrorType(obj.Type()) {
			continue
		}
		results[obj] = true
	}
	return call, results
}

// searchLikeCall reports whether call invokes a search-like helper: a
// function or closure through a plain identifier, a concrete method that
// is itself search-like, or an interface method with a search-like
// in-package implementation — so moving a search behind a method, or
// behind a per-mode interface, does not evade the rule.
func searchLikeCall(info *types.Info, call *ast.CallExpr, searchLike map[types.Object]bool) bool {
	if obj := calledIdent(info, call); obj != nil {
		return searchLike[obj]
	}
	m := calledMethod(info, call)
	if m == nil {
		return false
	}
	// Any match decides, so the map's iteration order cannot matter.
	for obj := range searchLike {
		if impl, ok := obj.(*types.Func); ok && implementsMethod(impl, m) {
			return true
		}
	}
	return false
}

// checkEntryPoint enforces context threading on exported engine entry
// points: Greedy* and FaultTolerant* package functions.
func checkEntryPoint(pass *framework.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	if fd.Recv != nil || !ast.IsExported(name) {
		return
	}
	if !hasPrefix(name, "Greedy") && !hasPrefix(name, "FaultTolerant") {
		return
	}
	if threadsContext(pass.Unit.Info, fd.Type) || delegatesInOneReturn(fd.Body) {
		return
	}
	pass.Reportf(fd.Name.Pos(), "exported engine entry point %s does not thread a context: take a context.Context, an options struct with a context field, or delegate to an entry point that does", name)
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// threadsContext reports whether the signature carries a context —
// directly, or inside a (possibly pointer-to) struct parameter with a
// context.Context field.
func threadsContext(info *types.Info, ftype *ast.FuncType) bool {
	if ftype.Params == nil {
		return false
	}
	for _, p := range ftype.Params.List {
		tv, ok := info.Types[p.Type]
		if !ok || tv.Type == nil {
			continue
		}
		t := tv.Type
		if isContextType(t) {
			return true
		}
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if isContextType(st.Field(i).Type()) {
					return true
				}
			}
		}
	}
	return false
}

// delegatesInOneReturn recognizes thin wrappers whose whole body is one
// return statement: the delegate carries the context (or is itself
// checked), so the wrapper need not re-declare it.
func delegatesInOneReturn(body *ast.BlockStmt) bool {
	if body == nil || len(body.List) != 1 {
		return false
	}
	ret, ok := body.List[0].(*ast.ReturnStmt)
	if !ok {
		return false
	}
	for _, r := range ret.Results {
		if _, ok := r.(*ast.CallExpr); ok {
			return true
		}
	}
	return false
}
