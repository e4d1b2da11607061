package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// PoolAlias enforces the lent-row rule on sync.Pool-backed buffers:
// a pooled row buffer (anything drawn from a sync.Pool) must not
// escape the function that holds it — by return, channel send, or
// closure capture — unless the escape is one of the sanctioned
// ownership transfers: a direct accessor wrapping Pool.Get, a return
// paired with a recycle closure (the lend-return idiom), a closure
// that only recycles, or a composite literal taking ownership
// (owned: true). Aliasing a row's buffers into a non-owning row
// additionally requires pinning the source (src.lent = true) first, so
// the owner's release() skips the shared memory instead of recycling
// it out from under the alias. No production package pools rows (the
// core DP rows are GC-owned), so testdata/poolalias is its only
// subject in this module.
var PoolAlias = &Analyzer{
	Name: "poolalias",
	Doc: "sync.Pool-backed row buffers must not escape via return, channel send " +
		"or closure capture without a pin (lent = true), a recycle closure, or an " +
		"ownership transfer (owned: true); otherwise release() recycles shared memory",
	Run: runPoolAlias,
}

func runPoolAlias(pass *Pass) error {
	sum := pass.facts.summary()
	for _, file := range pass.Files {
		if fname := pass.Fset.Position(file.Pos()).Filename; strings.HasSuffix(fname, "_test.go") {
			// Tests construct and alias rows deliberately to exercise
			// the runtime half of this rule.
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncDecl:
				if v.Body != nil {
					analyzePoolFunc(pass, sum, v.Recv, v.Type, v.Body)
				}
			case *ast.FuncLit:
				analyzePoolFunc(pass, sum, nil, v.Type, v.Body)
			}
			return true
		})
	}
	return nil
}

// poolTaint is the flow-sensitive pooled-buffer taint for one
// function: per definition site, whether the defined value can carry a
// pooled buffer at all (any), and whether it can carry one from an
// indirect source — a summarized accessor or a row buffer-field read —
// rather than only from an in-function Pool.Get (ind). A value that is
// pooled but never indirect is the accessor idiom itself (getF64) and
// may be returned raw; everything else needs a sanction.
type poolTaint struct {
	pass *Pass
	sum  *pkgSummary
	rd   *ReachDefs
	any  []bool
	ind  []bool
}

func analyzePoolFunc(pass *Pass, sum *pkgSummary, recv *ast.FieldList, ftype *ast.FuncType, body *ast.BlockStmt) {
	g := pass.facts.cfg(body)
	rd := newReachDefs(g, pass.TypesInfo, recv, ftype)
	pt := &poolTaint{
		pass: pass,
		sum:  sum,
		rd:   rd,
		any:  make([]bool, len(rd.sites)),
		ind:  make([]bool, len(rd.sites)),
	}
	// Both taint relations are monotone, so a joint fixpoint converges.
	for changed := true; changed; {
		changed = false
		for i, site := range rd.sites {
			if site.rhs == nil {
				continue
			}
			a, ind := pt.exprPooled(site.rhs, site.tupleIdx, site.at)
			if a && !pt.any[i] {
				pt.any[i] = true
				changed = true
			}
			if ind && !pt.ind[i] {
				pt.ind[i] = true
				changed = true
			}
		}
	}

	walkOwnBody(body, func(n ast.Node) {
		switch v := n.(type) {
		case *ast.ReturnStmt:
			pt.checkReturn(v, ftype)
		case *ast.SendStmt:
			pt.checkSend(v)
		case *ast.FuncLit:
			pt.checkCapture(v)
		case *ast.CompositeLit:
			pt.checkRowAlias(v, g)
		}
	})
}

// exprPooled reports whether e (result tupleIdx of a multi-value
// expression) can carry a pooled buffer at program point `at`.
func (pt *poolTaint) exprPooled(e ast.Expr, tupleIdx int, at ref) (pooled, ind bool) {
	if e == nil {
		return false, false
	}
	switch v := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if fn := calleeFunc(pt.pass.TypesInfo, v); isPoolMethod(fn, "Get") {
			return true, false
		}
		if cf := pt.sum.calleeFacts(v); cf != nil && tupleIdx < len(cf.pooledResults) && cf.pooledResults[tupleIdx] {
			return true, true
		}
		return false, false
	case *ast.Ident:
		obj, _ := pt.pass.TypesInfo.ObjectOf(v).(*types.Var)
		if obj == nil {
			return false, false
		}
		return pt.identPooled(obj, at)
	case *ast.SliceExpr:
		return pt.exprPooled(v.X, 0, at)
	case *ast.IndexExpr:
		return pt.exprPooled(v.X, 0, at)
	case *ast.TypeAssertExpr:
		return pt.exprPooled(v.X, 0, at)
	case *ast.StarExpr:
		return pt.exprPooled(v.X, 0, at)
	case *ast.UnaryExpr:
		return pt.exprPooled(v.X, 0, at)
	case *ast.SelectorExpr:
		if isRowBufferField(pt.pass.TypesInfo, v) {
			return true, true
		}
		return false, false
	}
	return false, false
}

// checkReturn flags pooled results with no release path. Results that
// are only ever direct Pool.Get values are the accessor idiom (getF64)
// and pass; indirect pooled results pass only when the same return
// carries a recycle closure for them (the lend-return idiom).
func (pt *poolTaint) checkReturn(ret *ast.ReturnStmt, ftype *ast.FuncType) {
	at := pt.rd.refOf(ret)
	if len(ret.Results) == 0 {
		// Naked return: named results carry their reaching values.
		if res := resultsOf(ftype); res != nil {
			for _, f := range res.List {
				for _, name := range f.Names {
					obj, _ := pt.pass.TypesInfo.ObjectOf(name).(*types.Var)
					if obj == nil {
						continue
					}
					if a, ind := pt.identPooled(obj, at); a && ind {
						pt.pass.Reportf(ret.Pos(),
							"pooled row buffer %s escapes via (naked) return without a release path: return a recycle closure alongside it or transfer ownership (owned: true)", name.Name)
					}
				}
			}
		}
		return
	}
	var recyclers []*ast.FuncLit
	for _, res := range ret.Results {
		if fl, ok := ast.Unparen(res).(*ast.FuncLit); ok {
			recyclers = append(recyclers, fl)
		}
	}
	for _, res := range ret.Results {
		if _, ok := ast.Unparen(res).(*ast.FuncLit); ok {
			continue
		}
		a, ind := pt.exprPooled(res, 0, at)
		if !a || !ind {
			continue
		}
		root := rootIdent(res)
		obj, _ := pt.pass.TypesInfo.ObjectOf(root).(*types.Var)
		sanctioned := false
		for _, fl := range recyclers {
			if obj != nil && pt.recycles(fl, obj) {
				sanctioned = true
				break
			}
		}
		if !sanctioned {
			pt.pass.Reportf(res.Pos(),
				"pooled row buffer %s escapes via return without a release path: return a recycle closure alongside it (the tables lend-return idiom) or transfer ownership (owned: true)", exprText(res))
		}
	}
}

// identPooled evaluates the taint of a variable at a program point.
func (pt *poolTaint) identPooled(obj *types.Var, at ref) (pooled, ind bool) {
	for _, s := range pt.rd.defsReaching(obj, at) {
		if pt.any[s] {
			pooled = true
		}
		if pt.ind[s] {
			ind = true
		}
	}
	return pooled, ind
}

// checkSend flags any pooled buffer crossing a channel: the receiver's
// lifetime is unknowable here, so there is no sanctioned shape short
// of not sending pooled memory at all.
func (pt *poolTaint) checkSend(send *ast.SendStmt) {
	at := pt.rd.refOf(send)
	reported := false
	ast.Inspect(send.Value, func(n ast.Node) bool {
		if reported {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		switch e.(type) {
		case *ast.Ident, *ast.SelectorExpr:
			if a, _ := pt.exprPooled(e, 0, at); a {
				pt.pass.Reportf(send.Pos(),
					"pooled row buffer %s escapes on a channel send: the receiver outlives release() and the pool may recycle the memory mid-use", exprText(e))
				reported = true
				return false
			}
		}
		return true
	})
}

// checkCapture flags closures capturing a pooled local for anything
// other than recycling it.
func (pt *poolTaint) checkCapture(fl *ast.FuncLit) {
	at := pt.rd.refOf(fl)
	seen := make(map[*types.Var]bool)
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pt.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || seen[obj] {
			return true
		}
		// Only free variables matter: a variable defined inside fl is
		// fl's own (and fl is analyzed as its own function).
		if fl.Pos() <= obj.Pos() && obj.Pos() < fl.End() {
			return true
		}
		if len(pt.rd.byObj[obj]) == 0 {
			return true // not a local of the enclosing function
		}
		seen[obj] = true
		if a, ind := pt.identPooled(obj, at); a && ind && !pt.recycles(fl, obj) {
			pt.pass.Reportf(fl.Pos(),
				"pooled row buffer %s is captured by a closure that does not recycle it: pin the row (lent = true) or keep pooled memory out of the closure", obj.Name())
		}
		return true
	})
}

// recycles reports whether fl references obj at all and every
// reference is an argument (possibly sliced) of a pool-sink call —
// the recycle-closure shape `func() { putF64(comm) }`.
func (pt *poolTaint) recycles(fl *ast.FuncLit, obj *types.Var) bool {
	sanctioned := make(map[*ast.Ident]bool)
	uses := 0
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isSinkCall(pt.sum, call) {
			return true
		}
		for _, arg := range call.Args {
			if id := rootIdent(arg); id != nil {
				sanctioned[id] = true
			}
		}
		return true
	})
	ok := true
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, isID := n.(*ast.Ident)
		if !isID || pt.pass.TypesInfo.Uses[id] != obj {
			return true
		}
		uses++
		if !sanctioned[id] {
			ok = false
		}
		return true
	})
	return uses > 0 && ok
}

// checkRowAlias enforces the pin-before-alias half of the lent-row
// rule: a non-owning composite literal of a pooled-row type that
// takes buffer fields from another row must be dominated by a pin of
// that source row (src.lent = true).
func (pt *poolTaint) checkRowAlias(lit *ast.CompositeLit, g *CFG) {
	tv, ok := pt.pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	named, isRow := pooledRowStruct(tv.Type)
	if !isRow {
		return
	}
	if litTakesOwnership(pt.pass, named, lit) {
		return
	}
	litRef, ok := g.RefAt(lit.Pos())
	if !ok {
		return
	}
	// Collect the distinct source rows whose buffers the literal
	// aliases, keyed by their printed form.
	sources := make(map[string]bool)
	for _, elt := range lit.Elts {
		val := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			val = kv.Value
		}
		sel := bufferFieldRead(pt.pass.TypesInfo, val)
		if sel == nil {
			continue
		}
		sources[exprText(sel.X)] = true
	}
	for text := range sources {
		if !pt.pinDominates(g, text, litRef) {
			pt.pass.Reportf(lit.Pos(),
				"row buffers of %s are aliased into a non-owning %s without pinning: set %s.lent = true before sharing so the owner's release() skips them", text, named.Obj().Name(), text)
		}
	}
}

// litTakesOwnership reports whether the literal sets owned to a true
// constant — the newPlanRow ownership-transfer shape.
func litTakesOwnership(pass *Pass, named *types.Named, lit *ast.CompositeLit) bool {
	for name, expr := range literalFields(named, lit) {
		if name != "owned" {
			continue
		}
		tv, ok := pass.TypesInfo.Types[expr]
		if ok && tv.Value != nil && tv.Value.String() == "true" {
			return true
		}
	}
	return false
}

// bufferFieldRead unwraps e to a buffer-field selector (src.cost,
// src.cost[:n]) or nil.
func bufferFieldRead(info *types.Info, e ast.Expr) *ast.SelectorExpr {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if isRowBufferField(info, v) {
				return v
			}
			return nil
		case *ast.SliceExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// pinDominates reports whether a pin of the row printed as text
// (text.lent = true, or text.pin()) dominates the use site.
func (pt *poolTaint) pinDominates(g *CFG, text string, use ref) bool {
	for _, blk := range g.Blocks {
		for i, n := range blk.Nodes {
			if !isPinOf(pt.pass.TypesInfo, n, text) {
				continue
			}
			if g.Dominates(ref{blk, i}, use) {
				return true
			}
		}
	}
	return false
}

// isPinOf recognizes the pin statements for a row spelled text:
// `<text>.lent = true` or a call `<text>.pin(...)` / `<text>.Pin(...)`.
func isPinOf(info *types.Info, n ast.Node, text string) bool {
	switch v := n.(type) {
	case *ast.AssignStmt:
		if len(v.Lhs) != 1 || len(v.Rhs) != 1 {
			return false
		}
		sel, ok := v.Lhs[0].(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "lent" {
			return false
		}
		tv, ok := info.Types[v.Rhs[0]]
		if !ok || tv.Value == nil || tv.Value.String() != "true" {
			return false
		}
		return exprText(sel.X) == text
	case *ast.ExprStmt:
		call, ok := v.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "pin" && sel.Sel.Name != "Pin") {
			return false
		}
		return exprText(sel.X) == text
	}
	return false
}
