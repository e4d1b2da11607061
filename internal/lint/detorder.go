package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetOrder is the nondeterminism lint for the solver/chaos/mpi
// packages. The paper's reproducibility claims (Algorithm 2
// bit-identity, deterministic chaos replays) require that nothing
// order-dependent flows out of an unordered source, so three shapes
// are flagged:
//
//  1. a `for range` over a map whose body appends to an outer slice,
//     sends on a channel, or prints — unless the accumulator is sorted
//     after the loop (the Holders idiom) — because map iteration order
//     varies run to run;
//  2. wall-clock or global-rand calls reachable from a rank function
//     (one taking an mpi.Comm parameter) in the non-simulated
//     packages, where simclock does not already police them — found
//     interprocedurally through the package summary table;
//  3. goroutine results collected in channel-arrival order
//     (append(s, <-ch) or ranging over the result channel), because
//     arrival order is scheduler-dependent — results must be indexed
//     by rank (the World.Run shape) and merged in rank order.
var DetOrder = &Analyzer{
	Name: "detorder",
	Doc: "solver/chaos/mpi code must not let unordered sources become ordered outputs: " +
		"no map-order accumulation (sort after the loop or index by key), no wall clock " +
		"on rank-function paths, no channel-arrival-order result collection",
	Run: runDetOrder,
}

// detOrderPkgPrefixes scope the map-order and goroutine-collection
// checks to the packages whose outputs feed plans and reports.
var detOrderPkgPrefixes = []string{
	"repro/internal/core",
	"repro/internal/mpi",
	"repro/internal/chaos",
	"repro/internal/platform",
	"repro/internal/simgrid",
	"repro/internal/fault",
	"repro/internal/monitor",
	"repro/internal/serve",
	"repro/internal/store",
	"repro/cmd/scatterd",
}

func inDetOrderScope(path string) bool {
	for _, prefix := range detOrderPkgPrefixes {
		if path == prefix || strings.HasPrefix(path, prefix+"/") {
			return true
		}
	}
	return false
}

func runDetOrder(pass *Pass) error {
	sum := pass.facts.summary()
	orderScope := inDetOrderScope(pass.Pkg.Path())
	// simclock already polices wall-clock use inside the simulated
	// packages; detorder extends the rule interprocedurally to rank
	// functions living outside them (experiments, demos, cmds).
	wallScope := !isSimulatedPkg(pass.Pkg.Path())
	if !orderScope && !wallScope {
		return nil
	}
	for _, file := range pass.Files {
		if fname := pass.Fset.Position(file.Pos()).Filename; strings.HasSuffix(fname, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var ftype *ast.FuncType
			var body *ast.BlockStmt
			switch v := n.(type) {
			case *ast.FuncDecl:
				ftype, body = v.Type, v.Body
			case *ast.FuncLit:
				ftype, body = v.Type, v.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			if orderScope {
				checkMapOrder(pass, body)
				checkArrivalOrder(pass, body)
			}
			if wallScope && hasCommParam(pass.TypesInfo, ftype) {
				checkRankWallClock(pass, sum, body)
			}
			return true
		})
	}
	return nil
}

// checkMapOrder flags order-dependent effects inside `for range m`
// over a map: appends to outer accumulators (unless sorted after the
// loop), channel sends, and printed output.
func checkMapOrder(pass *Pass, body *ast.BlockStmt) {
	g := pass.facts.cfg(body)
	walkOwnBody(body, func(n ast.Node) {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return
		}
		walkOwnBody(rng.Body, func(inner ast.Node) {
			switch v := inner.(type) {
			case *ast.AssignStmt:
				acc := appendAccumulator(pass.TypesInfo, v)
				if acc == nil || !declaredOutside(acc, rng) {
					return
				}
				if sortedAfter(pass, g, acc, rng) {
					return
				}
				pass.Reportf(v.Pos(),
					"%s accumulates over an unordered map range: iteration order varies run to run, so downstream counts/plans/reports lose determinism; sort after the loop or write to key-indexed slots", acc.Name())
			case *ast.SendStmt:
				pass.Reportf(v.Pos(),
					"channel send inside an unordered map range: receivers observe map-iteration order, which varies run to run; iterate sorted keys instead")
			case *ast.CallExpr:
				if fn := calleeFunc(pass.TypesInfo, v); fn != nil && fn.Pkg() != nil &&
					fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Print") {
					pass.Reportf(v.Pos(),
						"output emitted inside an unordered map range: lines appear in map-iteration order, which varies run to run; iterate sorted keys instead")
				}
			}
		})
	})
}

// appendAccumulator returns the variable of an `acc = append(acc, …)`
// statement, or nil.
func appendAccumulator(info *types.Info, assign *ast.AssignStmt) *types.Var {
	if len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return nil
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return nil
	}
	lhs := identOf(assign.Lhs[0])
	if lhs == nil {
		return nil
	}
	obj, _ := info.ObjectOf(lhs).(*types.Var)
	return obj
}

// declaredOutside reports whether obj's declaration precedes the range
// statement (an outer accumulator rather than a loop-local).
func declaredOutside(obj *types.Var, rng *ast.RangeStmt) bool {
	return obj.Pos() < rng.Pos() || obj.Pos() >= rng.End()
}

// sortedAfter reports whether acc is passed to a sort function at a
// point after the loop — the collect-then-sort idiom (Ledger.Holders).
func sortedAfter(pass *Pass, g *CFG, acc *types.Var, rng *ast.RangeStmt) bool {
	loopRef, okLoop := g.RefAt(rng.Pos())
	sorted := false
	for _, blk := range g.Blocks {
		for i, n := range blk.Nodes {
			found := false
			ast.Inspect(n, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok || !isSortCall(pass.TypesInfo, call) {
					return true
				}
				for _, arg := range call.Args {
					if id := rootIdent(arg); id != nil && pass.TypesInfo.ObjectOf(id) == acc {
						found = true
					}
				}
				return true
			})
			if !found {
				continue
			}
			if n.Pos() >= rng.End() && (!okLoop || g.CanPrecede(loopRef, ref{blk, i})) {
				sorted = true
			}
		}
	}
	return sorted
}

// isSortCall recognizes the sort/slices ordering entry points.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Ints", "Strings", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
			return true
		}
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}

// checkArrivalOrder flags collection of goroutine results in
// channel-arrival order.
func checkArrivalOrder(pass *Pass, body *ast.BlockStmt) {
	producers := countProducers(pass, body)
	walkOwnBody(body, func(n ast.Node) {
		switch v := n.(type) {
		case *ast.RangeStmt:
			ch, _ := pass.TypesInfo.ObjectOf(rootIdent(v.X)).(*types.Var)
			if ch == nil || producers[ch] < 2 {
				return
			}
			walkOwnBody(v.Body, func(inner ast.Node) {
				if assign, ok := inner.(*ast.AssignStmt); ok {
					if acc := appendAccumulator(pass.TypesInfo, assign); acc != nil {
						pass.Reportf(assign.Pos(),
							"goroutine results are appended to %s in channel-arrival order: arrival order is scheduler-dependent; index results by rank and merge in rank order", acc.Name())
					}
				}
			})
		case *ast.CallExpr:
			id, ok := ast.Unparen(v.Fun).(*ast.Ident)
			if !ok || id.Name != "append" {
				return
			}
			for i, arg := range v.Args {
				if i == 0 {
					continue
				}
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.ARROW {
					continue
				}
				ch, _ := pass.TypesInfo.ObjectOf(rootIdent(un.X)).(*types.Var)
				if ch != nil && producers[ch] >= 2 {
					pass.Reportf(v.Pos(),
						"goroutine results are appended in channel-arrival order: arrival order is scheduler-dependent; index results by rank and merge in rank order")
				}
			}
		}
	})
}

// countProducers counts, per channel variable, how many concurrent
// senders this function spawns: a goroutine started inside a loop
// counts as many (weight 2), so two means "arrival order unknown".
func countProducers(pass *Pass, body *ast.BlockStmt) map[*types.Var]int {
	producers := make(map[*types.Var]int)
	var visit func(n ast.Node, depth int)
	visit = func(n ast.Node, depth int) {
		switch v := n.(type) {
		case *ast.ForStmt:
			if v.Init != nil {
				visit(v.Init, depth)
			}
			visit(v.Body, depth+1)
			return
		case *ast.RangeStmt:
			visit(v.Body, depth+1)
			return
		case *ast.GoStmt:
			fl, ok := v.Call.Fun.(*ast.FuncLit)
			if !ok {
				return
			}
			weight := 1
			if depth > 0 {
				weight = 2
			}
			ast.Inspect(fl.Body, func(m ast.Node) bool {
				if send, ok := m.(*ast.SendStmt); ok {
					if ch, ok := pass.TypesInfo.ObjectOf(rootIdent(send.Chan)).(*types.Var); ok {
						producers[ch] += weight
					}
				}
				return true
			})
			return
		case *ast.FuncLit:
			return // analyzed as its own function
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n || m == nil {
				return true
			}
			switch m.(type) {
			case *ast.ForStmt, *ast.RangeStmt, *ast.GoStmt, *ast.FuncLit:
				visit(m, depth)
				return false
			}
			return true
		})
	}
	visit(body, 0)
	return producers
}

// hasCommParam reports whether the function signature takes an
// mpi.Comm (or *mpi.Comm) parameter — the marker of a rank function.
func hasCommParam(info *types.Info, ftype *ast.FuncType) bool {
	if ftype == nil || ftype.Params == nil {
		return false
	}
	for _, f := range ftype.Params.List {
		t := info.TypeOf(f.Type)
		if t == nil {
			continue
		}
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			if named.Obj().Name() == "Comm" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == mpiPkgPath {
				return true
			}
		}
	}
	return false
}

// checkRankWallClock flags wall-clock reads reachable from a rank
// function, directly or through same-package helpers (via the summary
// table).
func checkRankWallClock(pass *Pass, sum *pkgSummary, body *ast.BlockStmt) {
	walkOwnBody(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if w := directWallClock(pass.TypesInfo, call); w != "" {
			pass.Reportf(call.Pos(),
				"%s on a rank-function path: a function taking an mpi.Comm runs under the simulated clock, so real time makes makespans irreproducible; use Comm.Clock()", w)
			return
		}
		if cf := sum.calleeFacts(call); cf != nil && cf.wallClock != "" {
			pass.Reportf(call.Pos(),
				"call to %s reaches the wall clock (%s) on a rank-function path: a function taking an mpi.Comm runs under the simulated clock; use Comm.Clock()", cf.name, cf.wallClock)
		}
	})
}
