package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoroLeak flags goroutines in the concurrency-simulation packages
// whose exit is tied to nothing the spawner controls. A goroutine that
// blocks — on a channel operation, a select with no default, or an
// unconditional loop — must carry at least one exit signal:
//
//   - it receives from a context.Context's Done channel;
//   - every channel it can block on is caller-managed (a parameter, a
//     field, a captured outer variable) or has a counterpart operation
//     (close, send for its receives, receive for its sends) somewhere
//     outside the goroutine in the spawning function;
//   - it calls wg.Done() on a WaitGroup the spawning function Waits on.
//
// Without any of these, nothing ever unblocks the goroutine: each
// spawn leaks a parked goroutine and, in the rank-per-goroutine
// simulator, a leaked rank keeps mailboxes and fault hooks alive for
// the rest of the process. Goroutines with no blocking construct at
// all are exempt — they run to completion on their own.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc: "goroutines spawned in the simulator packages must tie their exit to " +
		"the spawner: a context cancel, a channel close or counterpart " +
		"operation, or a WaitGroup join; a blocking goroutine with none of " +
		"these leaks a parked rank forever",
	Run: runGoroLeak,
}

func runGoroLeak(pass *Pass) error {
	if !pkgInScope(pass.Pkg, concurrencySimPkgPrefixes) {
		return nil
	}
	for _, unit := range pass.facts.funcUnits() {
		var goStmts []*ast.GoStmt
		walkOwnBody(unit.Body, func(n ast.Node) {
			if gs, ok := n.(*ast.GoStmt); ok {
				goStmts = append(goStmts, gs)
			}
		})
		for _, gs := range goStmts {
			if fname := pass.Fset.Position(gs.Pos()).Filename; strings.HasSuffix(fname, "_test.go") {
				continue // test goroutines are joined by the test harness idioms
			}
			checkGoroutine(pass, unit, gs)
		}
	}
	return nil
}

// blockOp is one potentially-blocking construct in a goroutine body.
type blockOp struct {
	node ast.Node
	// chanExpr is the channel operand for channel ops (nil for bare
	// infinite loops and selects).
	chanExpr ast.Expr
	isSend   bool
	// isRange: only a close terminates a range; counterpart sends
	// merely feed it.
	isRange bool
	what    string
	// children are the comm arms of a select: the select blocks only
	// if every arm does, so it is released when any child is.
	children []*blockOp
}

func checkGoroutine(pass *Pass, unit *funcUnit, gs *ast.GoStmt) {
	lit, ok := gs.Call.Fun.(*ast.FuncLit)
	if !ok {
		return // spawned named functions are the callee's responsibility
	}
	info := pass.TypesInfo

	ops, hasCtxDone := goroutineBlockOps(info, lit)
	if len(ops) == 0 {
		return // runs to completion unaided
	}
	if hasCtxDone {
		return // exit wired to a context cancel
	}
	if waitGroupJoined(info, unit.Body, lit) {
		return // exit joined via wg.Done / wg.Wait
	}
	for _, op := range ops {
		if blockOpReleased(info, unit.Body, lit, op) {
			continue
		}
		pass.Reportf(gs.Pos(),
			"goroutine may never exit: it blocks on %s with no context cancel, channel close or counterpart in the spawner, and no WaitGroup join (goroutine leak)",
			op.what)
		return
	}
}

// goroutineBlockOps collects the potentially-blocking constructs at
// the goroutine's own nesting level, and whether any receive is from a
// context Done channel.
func goroutineBlockOps(info *types.Info, lit *ast.FuncLit) (ops []*blockOp, hasCtxDone bool) {
	var inspect func(n ast.Node)
	inspect = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch v := m.(type) {
			case *ast.FuncLit:
				if m != n {
					return false
				}
			case *ast.SelectStmt:
				if hasDefaultClause(v) {
					// Never blocks; its arms poll. A polled ctx.Done
					// still counts as the goroutine's exit signal, and
					// only the clause bodies can hold blocking
					// constructs.
					for _, c := range v.Body.List {
						cc, ok := c.(*ast.CommClause)
						if !ok {
							continue
						}
						if cc.Comm != nil {
							if _, ctx := selectArmOp(info, cc.Comm); ctx {
								hasCtxDone = true
							}
						}
						for _, stmt := range cc.Body {
							inspect(stmt)
						}
					}
					return false
				}
				sel := &blockOp{node: v, what: "a select with no default"}
				for _, c := range v.Body.List {
					cc, ok := c.(*ast.CommClause)
					if !ok || cc.Comm == nil {
						continue
					}
					if child, ctx := selectArmOp(info, cc.Comm); ctx {
						hasCtxDone = true
					} else if child != nil {
						sel.children = append(sel.children, child)
					}
					for _, stmt := range cc.Body {
						inspect(stmt)
					}
				}
				ops = append(ops, sel)
				return false
			case *ast.SendStmt:
				ops = append(ops, &blockOp{node: v, chanExpr: v.Chan, isSend: true,
					what: "a channel send"})
			case *ast.UnaryExpr:
				if v.Op != token.ARROW {
					break
				}
				if isCtxDoneCall(info, v.X) {
					hasCtxDone = true
					break
				}
				ops = append(ops, &blockOp{node: v, chanExpr: v.X, what: "a channel receive"})
			case *ast.RangeStmt:
				if isChanExpr(info, v.X) {
					ops = append(ops, &blockOp{node: v, chanExpr: v.X, isRange: true,
						what: "a range over a channel"})
				}
			case *ast.ForStmt:
				if v.Cond == nil {
					ops = append(ops, &blockOp{node: v, what: "an unconditional loop"})
				}
			}
			return true
		})
	}
	inspect(lit.Body)
	return ops, hasCtxDone
}

// selectArmOp classifies one select comm statement as a blocking arm,
// or as a context-Done receive (ctx=true).
func selectArmOp(info *types.Info, comm ast.Stmt) (op *blockOp, ctx bool) {
	switch v := comm.(type) {
	case *ast.SendStmt:
		return &blockOp{node: v, chanExpr: v.Chan, isSend: true, what: "a channel send"}, false
	case *ast.ExprStmt:
		if ue, ok := ast.Unparen(v.X).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
			if isCtxDoneCall(info, ue.X) {
				return nil, true
			}
			return &blockOp{node: v, chanExpr: ue.X, what: "a channel receive"}, false
		}
	case *ast.AssignStmt:
		if len(v.Rhs) == 1 {
			if ue, ok := ast.Unparen(v.Rhs[0]).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
				if isCtxDoneCall(info, ue.X) {
					return nil, true
				}
				return &blockOp{node: v, chanExpr: ue.X, what: "a channel receive"}, false
			}
		}
	}
	return nil, false
}

// blockOpReleased reports whether op has an exit signal, treating a
// select as released when any arm is.
func blockOpReleased(info *types.Info, body *ast.BlockStmt, lit *ast.FuncLit, op *blockOp) bool {
	if len(op.children) > 0 {
		for _, c := range op.children {
			if blockOpReleased(info, body, lit, c) {
				return true
			}
		}
		return false
	}
	return goroutineOpReleased(info, body, lit, op)
}

func hasDefaultClause(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// isCtxDoneCall reports whether e is ctx.Done() on a context.Context.
func isCtxDoneCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

func isChanExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// waitGroupJoined reports whether the goroutine Done's a WaitGroup the
// spawning function Waits on outside the goroutine.
func waitGroupJoined(info *types.Info, body *ast.BlockStmt, lit *ast.FuncLit) bool {
	dones := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if wg := waitGroupRecv(info, call, "Done"); wg != nil {
				dones[wg] = true
			}
		}
		return true
	})
	if len(dones) == 0 {
		return false
	}
	joined := false
	ast.Inspect(body, func(m ast.Node) bool {
		if m == lit {
			return false // the goroutine's own Waits don't join it
		}
		if call, ok := m.(*ast.CallExpr); ok {
			if wg := waitGroupRecv(info, call, "Wait"); wg != nil && dones[wg] {
				joined = true
			}
		}
		return !joined
	})
	return joined
}

// goroutineOpReleased reports whether one blocking op has an exit
// signal: a caller-managed channel, or a counterpart operation on the
// same channel outside the goroutine literal.
func goroutineOpReleased(info *types.Info, body *ast.BlockStmt, lit *ast.FuncLit, op *blockOp) bool {
	if op.chanExpr == nil {
		return false // bare infinite loop: nothing external ends it
	}
	id := rootIdent(op.chanExpr)
	if id == nil {
		return true // channel from a call or field chain: caller-managed
	}
	obj, ok := info.ObjectOf(id).(*types.Var)
	if !ok || obj == nil {
		return true
	}
	// A variable declared outside the spawning function's body — a
	// parameter, receiver, package variable, or an outer function's
	// local — is managed beyond this function's horizon.
	if obj.Pos() < body.Pos() || obj.Pos() >= body.End() {
		return true
	}
	if _, isChan := obj.Type().Underlying().(*types.Chan); !isChan {
		return true // selector/index rooted at a non-channel local: unknown structure
	}
	// Counterpart search across the spawning function, excluding the
	// goroutine literal itself.
	released := false
	ast.Inspect(body, func(m ast.Node) bool {
		if m == lit || released {
			return false
		}
		switch v := m.(type) {
		case *ast.CallExpr:
			if bid, ok := ast.Unparen(v.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[bid].(*types.Builtin); ok && b.Name() == "close" && len(v.Args) == 1 {
					if cid := rootIdent(v.Args[0]); cid != nil && info.ObjectOf(cid) == obj {
						released = true
					}
				}
			}
		case *ast.SendStmt:
			if !op.isSend && !op.isRange {
				if cid := rootIdent(v.Chan); cid != nil && info.ObjectOf(cid) == obj {
					released = true
				}
			}
		case *ast.UnaryExpr:
			if op.isSend && v.Op == token.ARROW {
				if cid := rootIdent(v.X); cid != nil && info.ObjectOf(cid) == obj {
					released = true
				}
			}
		case *ast.RangeStmt:
			if op.isSend && isChanExpr(info, v.X) {
				if cid := rootIdent(v.X); cid != nil && info.ObjectOf(cid) == obj {
					released = true
				}
			}
		}
		return !released
	})
	return released
}
