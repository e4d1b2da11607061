package lint

import (
	"go/ast"
	"go/types"
)

// This file computes per-package function summaries: the facts the
// dataflow analyzers need about a callee without re-analyzing its body
// at every call site. Summaries are solved to a fixpoint over all
// functions and function literals of the package, so a helper that
// calls a helper that calls time.Now is still seen as reaching the
// wall clock. Calls that leave the package resolve against export data
// only, so cross-package effects are encoded as API knowledge of the
// module's protocol types (sync.Pool, fault.Ledger) — the unit a vet
// pass sees is one package, the same boundary go/analysis facts cross
// with serialized fact files.

// funcFacts summarizes one function or function literal.
type funcFacts struct {
	name string
	body *ast.BlockStmt
	// recv/ftype seed parameter lookups (receiver nil for literals).
	recv  *ast.FieldList
	ftype *ast.FuncType

	// pooledResults[i] reports that the i-th result can carry a
	// sync.Pool-backed buffer out of the function.
	pooledResults []bool
	// poolSink reports that some parameter is recycled into a pool
	// (directly via (*sync.Pool).Put or through another sink).
	poolSink bool
	// appendsLedger reports that the function (transitively) appends a
	// checkpoint via (*fault.Ledger).Deliver.
	appendsLedger bool
	// wallClock is "" or a witness chain like "tick → time.Now"
	// proving the function (transitively) reads the wall clock or the
	// global math/rand source.
	wallClock string
}

// pkgSummary is the summary table of one package.
type pkgSummary struct {
	byFunc map[*types.Func]*funcFacts
	byLit  map[*ast.FuncLit]*funcFacts
	// closures maps a local variable bound to exactly one function
	// literal (deliver := func(...){...}) to that literal, so calls
	// through the variable resolve interprocedurally.
	closures map[*types.Var]*ast.FuncLit
	all      []*funcFacts
	info     *types.Info
}

// newPkgSummary computes the summary table of one package. The run's
// fact base (facts.go) builds it once and shares it among the
// analyzers of that run; nothing outlives the run.
func newPkgSummary(pkg *Package) *pkgSummary {
	s := &pkgSummary{
		byFunc:   make(map[*types.Func]*funcFacts),
		byLit:    make(map[*ast.FuncLit]*funcFacts),
		closures: make(map[*types.Var]*ast.FuncLit),
		info:     pkg.Info,
	}

	litBindings := make(map[*types.Var]int)
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncDecl:
				if v.Body == nil {
					return true
				}
				fn, _ := pkg.Info.Defs[v.Name].(*types.Func)
				if fn == nil {
					return true
				}
				ff := &funcFacts{name: v.Name.Name, body: v.Body, recv: v.Recv, ftype: v.Type}
				ff.pooledResults = make([]bool, fn.Type().(*types.Signature).Results().Len())
				s.byFunc[fn] = ff
				s.all = append(s.all, ff)
			case *ast.FuncLit:
				ff := &funcFacts{name: "func literal", body: v.Body, ftype: v.Type}
				if sig, ok := pkg.Info.TypeOf(v).(*types.Signature); ok {
					ff.pooledResults = make([]bool, sig.Results().Len())
				}
				s.byLit[v] = ff
				s.all = append(s.all, ff)
			case *ast.AssignStmt:
				if len(v.Lhs) == len(v.Rhs) {
					for i, lhs := range v.Lhs {
						s.recordClosure(identOf(lhs), v.Rhs[i], litBindings)
					}
				}
			case *ast.ValueSpec:
				if len(v.Values) == len(v.Names) {
					for i, name := range v.Names {
						s.recordClosure(name, v.Values[i], litBindings)
					}
				}
			}
			return true
		})
	}
	// A variable rebound to a second literal is ambiguous: drop it.
	for v, n := range litBindings {
		if n != 1 {
			delete(s.closures, v)
		}
	}
	for _, fl := range s.closures {
		if ff := s.byLit[fl]; ff != nil {
			ff.name = closureName(s, fl)
		}
	}

	// Fixpoint over all functions until no fact changes.
	for changed := true; changed; {
		changed = false
		for _, ff := range s.all {
			if s.update(ff) {
				changed = true
			}
		}
	}
	return s
}

// closureName names a bound literal by its variable for diagnostics.
func closureName(s *pkgSummary, fl *ast.FuncLit) string {
	for v, bound := range s.closures {
		if bound == fl {
			return v.Name()
		}
	}
	return "func literal"
}

// recordClosure tracks `v := func(...){...}` bindings.
func (s *pkgSummary) recordClosure(id *ast.Ident, rhs ast.Expr, bindings map[*types.Var]int) {
	fl, ok := ast.Unparen(rhs).(*ast.FuncLit)
	if !ok || id == nil {
		return
	}
	v, ok := s.info.ObjectOf(id).(*types.Var)
	if !ok {
		return
	}
	bindings[v]++
	s.closures[v] = fl
}

// calleeFacts resolves a call to its same-package summary: a declared
// function, a variable bound to one function literal, or a directly
// invoked literal. Returns nil for everything else (other packages,
// builtins, unresolvable function values).
func (s *pkgSummary) calleeFacts(call *ast.CallExpr) *funcFacts {
	if fn := calleeFunc(s.info, call); fn != nil {
		return s.byFunc[fn]
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if v, ok := s.info.ObjectOf(fun).(*types.Var); ok {
			if fl := s.closures[v]; fl != nil {
				return s.byLit[fl]
			}
		}
	case *ast.FuncLit:
		return s.byLit[fun]
	}
	return nil
}

// passesAppender reports whether the call hands its callee a
// same-package function value that appends a ledger checkpoint — a
// literal, or a variable bound to one. The callee may invoke it, so the
// call counts as an append: the delivery-callback shape of the
// supervised collectives, whose ledger write is an argument.
func (s *pkgSummary) passesAppender(call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		var fl *ast.FuncLit
		switch a := ast.Unparen(arg).(type) {
		case *ast.FuncLit:
			fl = a
		case *ast.Ident:
			if v, ok := s.info.ObjectOf(a).(*types.Var); ok {
				fl = s.closures[v]
			}
		}
		if ff := s.byLit[fl]; ff != nil && ff.appendsLedger {
			return true
		}
	}
	return false
}

// update recomputes ff's facts from its body; reports whether anything
// changed. Nested function literals are skipped — they have their own
// summaries and effects flow through calls.
func (s *pkgSummary) update(ff *funcFacts) bool {
	changed := false
	params := paramObjs(s.info, ff.recv, ff.ftype)

	// Flow-insensitive pooled-variable set for this function, solved
	// locally to a fixpoint so chains (v := getF64(); w := v[:n];
	// return w) are followed.
	pooled := make(map[*types.Var]bool)
	for again := true; again; {
		again = false
		walkOwnBody(ff.body, func(n ast.Node) {
			mark := func(id *ast.Ident, rhs ast.Expr, tupleIdx int) {
				v, ok := s.info.ObjectOf(id).(*types.Var)
				if !ok || pooled[v] {
					return
				}
				if s.pooledExprFI(pooled, rhs, tupleIdx) {
					pooled[v] = true
					again = true
				}
			}
			switch v := n.(type) {
			case *ast.AssignStmt:
				forEachDef(v.Lhs, v.Rhs, func(id *ast.Ident, rhs ast.Expr, ti int) { mark(id, rhs, ti) })
			case *ast.ValueSpec:
				forEachDef(identExprs(v.Names), v.Values, func(id *ast.Ident, rhs ast.Expr, ti int) { mark(id, rhs, ti) })
			}
		})
	}

	walkOwnBody(ff.body, func(n ast.Node) {
		switch v := n.(type) {
		case *ast.CallExpr:
			// Wall clock / global rand, direct or through a callee.
			if w := directWallClock(s.info, v); w != "" && ff.wallClock == "" {
				ff.wallClock = w
				changed = true
			}
			cf := s.calleeFacts(v)
			if cf != nil && cf != ff {
				if cf.wallClock != "" && ff.wallClock == "" {
					ff.wallClock = cf.name + " → " + cf.wallClock
					changed = true
				}
				if cf.appendsLedger && !ff.appendsLedger {
					ff.appendsLedger = true
					changed = true
				}
			}
			if fn := calleeFunc(s.info, v); isLedgerMethod(fn, "Deliver") && !ff.appendsLedger {
				ff.appendsLedger = true
				changed = true
			}
			// A parameter handed to a pool sink makes this function a sink.
			if !ff.poolSink && isSinkCall(s, v) {
				for _, arg := range v.Args {
					if p, ok := s.info.ObjectOf(rootIdent(arg)).(*types.Var); ok && params[p] {
						ff.poolSink = true
						changed = true
						break
					}
				}
			}
		case *ast.ReturnStmt:
			changed = s.markPooledResults(ff, pooled, v) || changed
		}
	})
	return changed
}

// markPooledResults records which results of a return statement carry
// pooled buffers.
func (s *pkgSummary) markPooledResults(ff *funcFacts, pooled map[*types.Var]bool, ret *ast.ReturnStmt) bool {
	changed := false
	set := func(i int) {
		if i < len(ff.pooledResults) && !ff.pooledResults[i] {
			ff.pooledResults[i] = true
			changed = true
		}
	}
	if len(ret.Results) == 0 {
		// Naked return: named results carry their current values.
		if res := resultsOf(ff.ftype); res != nil {
			i := 0
			for _, f := range res.List {
				for _, name := range f.Names {
					if v, ok := s.info.ObjectOf(name).(*types.Var); ok && pooled[v] {
						set(i)
					}
					i++
				}
			}
		}
		return changed
	}
	if len(ret.Results) == 1 && len(ff.pooledResults) > 1 {
		// return f() forwarding a tuple.
		if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
			if cf := s.calleeFacts(call); cf != nil {
				for i, p := range cf.pooledResults {
					if p {
						set(i)
					}
				}
			}
		}
		return changed
	}
	for i, e := range ret.Results {
		if s.pooledExprFI(pooled, e, 0) {
			set(i)
		}
	}
	return changed
}

// pooledExprFI is the flow-insensitive "does this expression carry a
// pooled buffer" predicate used by the summary fixpoint. An owning
// composite literal (owned: true on a pooled-row type) transfers
// ownership to the new value and stops the taint: the owner's release
// path is responsible from there on.
func (s *pkgSummary) pooledExprFI(pooled map[*types.Var]bool, e ast.Expr, tupleIdx int) bool {
	if e == nil {
		return false
	}
	switch v := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if fn := calleeFunc(s.info, v); isPoolMethod(fn, "Get") {
			return true
		}
		if cf := s.calleeFacts(v); cf != nil && tupleIdx < len(cf.pooledResults) {
			return cf.pooledResults[tupleIdx]
		}
		return false
	case *ast.Ident:
		obj, _ := s.info.ObjectOf(v).(*types.Var)
		return obj != nil && pooled[obj]
	case *ast.SliceExpr:
		return s.pooledExprFI(pooled, v.X, 0)
	case *ast.TypeAssertExpr:
		return s.pooledExprFI(pooled, v.X, 0)
	case *ast.StarExpr:
		return s.pooledExprFI(pooled, v.X, 0)
	case *ast.UnaryExpr:
		return s.pooledExprFI(pooled, v.X, 0)
	case *ast.SelectorExpr:
		return isRowBufferField(s.info, v)
	case *ast.IndexExpr:
		return s.pooledExprFI(pooled, v.X, 0)
	}
	return false
}

// paramObjs collects the parameter and receiver variables of a
// function signature.
func paramObjs(info *types.Info, recv *ast.FieldList, ftype *ast.FuncType) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	for _, fl := range []*ast.FieldList{recv, paramsOf(ftype)} {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := info.ObjectOf(name).(*types.Var); ok {
					out[v] = true
				}
			}
		}
	}
	return out
}

// isSinkCall reports whether the call recycles its argument into a
// pool: (*sync.Pool).Put, or a same-package summarized sink.
func isSinkCall(s *pkgSummary, call *ast.CallExpr) bool {
	if fn := calleeFunc(s.info, call); isPoolMethod(fn, "Put") {
		return true
	}
	cf := s.calleeFacts(call)
	return cf != nil && cf.poolSink
}

// directWallClock reports a wall-clock or global-rand call made
// directly by this node, as a witness string ("time.Now"), or "".
func directWallClock(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			return "time." + fn.Name()
		}
	case "math/rand", "math/rand/v2":
		if !seededRandFuncs[fn.Name()] {
			return fn.Pkg().Name() + "." + fn.Name()
		}
	}
	return ""
}

// isPoolMethod reports whether fn is (*sync.Pool).<name>.
func isPoolMethod(fn *types.Func, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	return namedTypeName(recv.Type()) == "Pool"
}

// isLedgerMethod reports whether fn is (*fault.Ledger).<name>.
func isLedgerMethod(fn *types.Func, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != faultPkgPath {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	return namedTypeName(recv.Type()) == "Ledger"
}

// faultPkgPath locates the recovery-ledger package.
const faultPkgPath = "repro/internal/fault"

// namedTypeName returns the name of a (possibly pointer-to) named
// type, or "".
func namedTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// pooledRowStruct reports whether t is a pooled-row type: a named
// struct carrying the lent/owned ownership bools and at least one
// slice field (core.planRow is the canonical instance).
func pooledRowStruct(t types.Type) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, false
	}
	var hasLent, hasOwned, hasSlice bool
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		switch {
		case f.Name() == "lent" && types.Identical(f.Type(), types.Typ[types.Bool]):
			hasLent = true
		case f.Name() == "owned" && types.Identical(f.Type(), types.Typ[types.Bool]):
			hasOwned = true
		default:
			if _, ok := f.Type().Underlying().(*types.Slice); ok {
				hasSlice = true
			}
		}
	}
	return named, hasLent && hasOwned && hasSlice
}

// isRowBufferField reports whether sel reads a slice field of a
// pooled-row struct — the aliasing move the lent-row rule governs.
func isRowBufferField(info *types.Info, sel *ast.SelectorExpr) bool {
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return false
	}
	if _, ok := selection.Obj().Type().Underlying().(*types.Slice); !ok {
		return false
	}
	_, isRow := pooledRowStruct(selection.Recv())
	return isRow
}

// rootIdent walks to the base identifier of an expression chain
// (src.cost[:n] → src), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.TypeAssertExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// walkOwnBody visits every node of body except nested function
// literal bodies.
func walkOwnBody(body *ast.BlockStmt, visit func(ast.Node)) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body != body {
			visit(fl)
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// forEachDef pairs assignment LHS identifiers with their defining
// expressions, handling tuple assignments.
func forEachDef(lhs, rhs []ast.Expr, fn func(id *ast.Ident, rhs ast.Expr, tupleIdx int)) {
	if len(rhs) == 0 {
		return
	}
	for i, l := range lhs {
		id := identOf(l)
		if id == nil || id.Name == "_" {
			continue
		}
		if len(rhs) == len(lhs) {
			fn(id, rhs[i], 0)
		} else {
			fn(id, rhs[0], i)
		}
	}
}

// identExprs converts a []*ast.Ident to []ast.Expr.
func identExprs(ids []*ast.Ident) []ast.Expr {
	out := make([]ast.Expr, len(ids))
	for i, id := range ids {
		out[i] = id
	}
	return out
}
