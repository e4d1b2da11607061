package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CollectiveDeadlock proves the absence of a matching receiver for
// blocking channel sends inside the concurrency-simulation packages —
// the channel-level generalization of the failfast deadlock that
// collectiveorder only pattern-matches. The model is a happens-before
// skeleton over one function: thread 0 is the function body, and every
// `go func(){...}()` statement spawns one auxiliary thread. For a
// local unbuffered channel that never escapes the function, the
// analysis demands:
//
//   - a thread-0 send must have some spawned goroutine that receives
//     from the channel and whose spawn statement can precede the send
//     (otherwise no interleaving has a receiver running: the send
//     blocks the collective forever);
//   - a goroutine send must be received by thread 0 on EVERY path from
//     the spawn to function exit — a path that returns early, or that
//     parks at a wg.Wait() whose Done lives after the send in the same
//     goroutine, leaks the goroutine blocked forever. This is exactly
//     the failfast shape: a rank deserts the protocol and the
//     survivor's rendezvous never completes.
//
// Buffered channels, escaping channels, channels written inside
// selects (an alternative arm may fire), and channels also received by
// a second goroutine are silent: the analysis only reports what it can
// prove on the thread skeleton.
var CollectiveDeadlock = &Analyzer{
	Name: "collectivedeadlock",
	Doc: "blocking sends on local unbuffered channels must have a reachable " +
		"receiver on every interleaving of the spawner and its goroutines; " +
		"an unmatched send is the failfast collective deadlock, proved on the " +
		"happens-before skeleton rather than pattern-matched",
	Run: runCollectiveDeadlock,
}

// concurrencySimPkgPrefixes scopes the deadlock and leak proofs to the
// packages that implement and torture the collective protocols.
var concurrencySimPkgPrefixes = []string{
	mpiPkgPath,
	"repro/internal/chaos",
	"repro/internal/simgrid",
	"repro/internal/serve",
	"repro/internal/store",
	"repro/cmd/scatterd",
}

func pkgInScope(pkg *types.Package, prefixes []string) bool {
	if pkg == nil {
		return false
	}
	for _, p := range prefixes {
		if pkg.Path() == p || strings.HasPrefix(pkg.Path(), p+"/") {
			return true
		}
	}
	return false
}

func runCollectiveDeadlock(pass *Pass) error {
	if !pkgInScope(pass.Pkg, concurrencySimPkgPrefixes) {
		return nil
	}
	for _, unit := range pass.facts.funcUnits() {
		if unit.Decl == nil {
			continue // literals are analyzed as threads of their spawner
		}
		checkFuncDeadlocks(pass, unit)
	}
	return nil
}

// A localChan is a channel the skeleton can reason about: defined by
// exactly one `make(chan ...)` in the function body proper, never
// escaping beyond direct send/recv/range/close/len/cap uses and the
// bodies of directly spawned goroutine literals.
type localChan struct {
	obj        *types.Var
	unbuffered bool
}

// threadOps are the channel operations of one thread, at statement
// granularity.
type threadOps struct {
	spawn  ast.Node // the GoStmt (nil for thread 0)
	sends  []*ast.SendStmt
	recvs  map[*types.Var]bool        // channels received (recv, range, select case)
	dones  map[*types.Var][]token.Pos // WaitGroup Done call sites
	inSel  map[*ast.SendStmt]bool
	spawnR ref
}

// donesBehind returns the WaitGroups whose every Done in this thread
// comes after pos — the ones a blocking statement at pos starves.
func (t *threadOps) donesBehind(pos token.Pos) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	for wg, sites := range t.dones {
		behind := true
		for _, p := range sites {
			if p < pos {
				behind = false
				break
			}
		}
		if behind {
			out[wg] = true
		}
	}
	return out
}

func checkFuncDeadlocks(pass *Pass, unit *funcUnit) {
	g := pass.facts.cfg(unit.Body)
	info := pass.TypesInfo

	chans := collectLocalChans(pass, unit)
	if len(chans) == 0 {
		return
	}

	// Thread skeleton: thread 0 is the CFG; each GoStmt with a literal
	// is one goroutine. The CFG node holding each descendant is
	// recorded for ordering queries.
	nodeRef := make(map[ast.Node]ref)
	var goStmts []*ast.GoStmt
	for _, blk := range g.Blocks {
		for i, n := range blk.Nodes {
			r := ref{blk, i}
			ast.Inspect(n, func(m ast.Node) bool {
				if _, ok := m.(*ast.FuncLit); ok {
					return false
				}
				if m != nil {
					nodeRef[m] = r
					if gs, ok := m.(*ast.GoStmt); ok {
						goStmts = append(goStmts, gs)
					}
				}
				return true
			})
		}
	}
	sort.Slice(goStmts, func(i, j int) bool { return goStmts[i].Pos() < goStmts[j].Pos() })

	main := collectThreadOps(info, unit.Body, nil, chans)
	var workers []*threadOps
	for _, gs := range goStmts {
		lit, ok := gs.Call.Fun.(*ast.FuncLit)
		if !ok {
			continue
		}
		ops := collectThreadOps(info, lit.Body, gs, chans)
		ops.spawnR = nodeRef[gs]
		workers = append(workers, ops)
	}

	// Rule 1: thread-0 sends need a concurrently running receiver.
	for _, send := range main.sends {
		if main.inSel[send] {
			continue
		}
		ch := chanOf(info, send.Chan, chans)
		if ch == nil {
			continue
		}
		sendR, ok := nodeRef[send]
		if !ok {
			continue
		}
		matched := false
		for _, w := range workers {
			if w.recvs[ch.obj] && g.CanPrecede(w.spawnR, sendR) {
				matched = true
				break
			}
		}
		if !matched {
			pass.Reportf(send.Pos(),
				"send on unbuffered channel %q blocks forever: no goroutine receiving from it is spawned before the send on any path (collective deadlock)",
				chanName(ch.obj))
		}
	}

	// Rule 2: goroutine sends need thread-0 receive coverage on every
	// spawner path from the spawn to exit.
	for _, w := range workers {
		for _, send := range w.sends {
			if w.inSel[send] {
				continue
			}
			ch := chanOf(info, send.Chan, chans)
			if ch == nil {
				continue
			}
			// A second goroutine receiving from the same channel makes
			// interleaving-exhaustive proof impossible: stay silent.
			shared := false
			for _, other := range workers {
				if other != w && other.recvs[ch.obj] {
					shared = true
					break
				}
			}
			if shared {
				continue
			}
			if !main.recvs[ch.obj] {
				pass.Reportf(send.Pos(),
					"goroutine send on unbuffered channel %q has no receiver in the spawning function: the goroutine blocks forever (collective deadlock)",
					chanName(ch.obj))
				continue
			}
			if spawnerPathAvoidsRecv(g, w.spawnR, info, ch.obj, w.donesBehind(send.Pos())) {
				pass.Reportf(send.Pos(),
					"goroutine send on unbuffered channel %q is not received on every spawner path: an early return or wg.Wait barrier leaves the goroutine blocked forever (failfast deadlock shape)",
					chanName(ch.obj))
			}
		}
	}
}

func chanName(obj *types.Var) string { return obj.Name() }

// chanOf resolves a send target to a tracked local channel.
func chanOf(info *types.Info, expr ast.Expr, chans map[*types.Var]*localChan) *localChan {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	obj, ok := info.ObjectOf(id).(*types.Var)
	if !ok {
		return nil
	}
	return chans[obj]
}

// collectLocalChans finds the function's provable channels: exactly
// one defining `make(chan ...)` in the body proper, unbuffered, and no
// use outside the allowed contexts.
func collectLocalChans(pass *Pass, unit *funcUnit) map[*types.Var]*localChan {
	info := pass.TypesInfo
	body := unit.Body

	// Direct goroutine literals: uses inside them keep the channel
	// local; uses inside any other literal escape the skeleton.
	goLits := make(map[*ast.FuncLit]bool)
	walkOwnBody(body, func(n ast.Node) {
		if gs, ok := n.(*ast.GoStmt); ok {
			if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
				goLits[lit] = true
			}
		}
	})

	type defRecord struct {
		makeCall *ast.CallExpr
		count    int
		inLit    bool
	}
	defs := make(map[*types.Var]*defRecord)
	record := func(id *ast.Ident, rhs ast.Expr, lit *ast.FuncLit) {
		if id == nil || id.Name == "_" {
			return
		}
		obj, ok := info.ObjectOf(id).(*types.Var)
		if !ok || obj == nil {
			return
		}
		if _, isChan := obj.Type().Underlying().(*types.Chan); !isChan {
			return
		}
		d := defs[obj]
		if d == nil {
			d = &defRecord{}
			defs[obj] = d
		}
		d.count++
		if lit != nil {
			d.inLit = true
		}
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && d.makeCall == nil {
			if bid, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[bid].(*types.Builtin); ok && b.Name() == "make" {
					d.makeCall = call
				}
			}
		}
	}
	walkWithEnclosingLit(body, func(n ast.Node, lit *ast.FuncLit) {
		switch v := n.(type) {
		case *ast.AssignStmt:
			forEachDef(v.Lhs, v.Rhs, func(id *ast.Ident, rhs ast.Expr, _ int) { record(id, rhs, lit) })
		case *ast.ValueSpec:
			for i, name := range v.Names {
				var rhs ast.Expr
				if i < len(v.Values) {
					rhs = v.Values[i]
				}
				record(name, rhs, lit)
			}
		}
	})

	out := make(map[*types.Var]*localChan)
	for obj, d := range defs {
		if d.count != 1 || d.inLit || d.makeCall == nil {
			continue
		}
		unbuffered := len(d.makeCall.Args) == 1
		if len(d.makeCall.Args) == 2 {
			iv := unit.engine().IntervalOfExpr(d.makeCall.Args[1])
			unbuffered = !iv.Empty && !iv.LoInf && !iv.HiInf && iv.Lo == 0 && iv.Hi == 0
		}
		if !unbuffered {
			continue // buffered or unknown capacity: sends may complete silently
		}
		out[obj] = &localChan{obj: obj, unbuffered: true}
	}
	if len(out) == 0 {
		return out
	}

	// Escape scan: every identifier use of a tracked channel must sit
	// in an allowed context, and only in the body proper or a direct
	// goroutine literal.
	allowed := make(map[*ast.Ident]bool)
	note := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			allowed[id] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SendStmt:
			note(v.Chan)
		case *ast.UnaryExpr:
			if v.Op == arrowOp {
				note(v.X)
			}
		case *ast.RangeStmt:
			note(v.X)
		case *ast.AssignStmt:
			forEachDef(v.Lhs, v.Rhs, func(id *ast.Ident, _ ast.Expr, _ int) { allowed[id] = true })
		case *ast.ValueSpec:
			for _, name := range v.Names {
				allowed[name] = true
			}
		case *ast.CallExpr:
			if bid, ok := ast.Unparen(v.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[bid].(*types.Builtin); ok {
					switch b.Name() {
					case "close", "len", "cap":
						for _, a := range v.Args {
							note(a)
						}
					}
				}
			}
		}
		return true
	})
	walkWithEnclosingLit(body, func(n ast.Node, lit *ast.FuncLit) {
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		obj, ok := info.ObjectOf(id).(*types.Var)
		if !ok {
			return
		}
		if _, tracked := out[obj]; !tracked {
			return
		}
		if !allowed[id] || (lit != nil && !goLits[lit]) {
			delete(out, obj)
		}
	})
	return out
}

// arrowOp is the channel-receive operator token.
const arrowOp = token.ARROW

// walkWithEnclosingLit visits every node of body, reporting the
// innermost function literal enclosing each (nil for the body proper).
func walkWithEnclosingLit(body *ast.BlockStmt, visit func(n ast.Node, lit *ast.FuncLit)) {
	var walk func(n ast.Node, lit *ast.FuncLit)
	walk = func(n ast.Node, lit *ast.FuncLit) {
		ast.Inspect(n, func(m ast.Node) bool {
			if fl, ok := m.(*ast.FuncLit); ok && m != n {
				walk(fl.Body, fl)
				return false
			}
			if m != nil && m != n {
				visit(m, lit)
			}
			return true
		})
	}
	walk(body, nil)
}

// collectThreadOps gathers one thread's channel sends, received
// channels and WaitGroup Dones, at the thread's own nesting level
// (nested literals excluded).
func collectThreadOps(info *types.Info, body *ast.BlockStmt, spawn ast.Node, chans map[*types.Var]*localChan) *threadOps {
	ops := &threadOps{
		spawn: spawn,
		recvs: make(map[*types.Var]bool),
		dones: make(map[*types.Var][]token.Pos),
		inSel: make(map[*ast.SendStmt]bool),
	}
	chanObj := func(e ast.Expr) *types.Var {
		if ch := chanOf(info, e, chans); ch != nil {
			return ch.obj
		}
		return nil
	}
	var selDepth int
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch v := m.(type) {
			case *ast.FuncLit:
				if m != n {
					return false
				}
			case *ast.SelectStmt:
				if m == n {
					return true
				}
				selDepth++
				walk(v.Body)
				selDepth--
				return false
			case *ast.SendStmt:
				ops.sends = append(ops.sends, v)
				if selDepth > 0 {
					ops.inSel[v] = true
				}
			case *ast.UnaryExpr:
				if v.Op == arrowOp {
					if obj := chanObj(v.X); obj != nil {
						ops.recvs[obj] = true
					}
				}
			case *ast.RangeStmt:
				if obj := chanObj(v.X); obj != nil {
					ops.recvs[obj] = true
				}
			case *ast.CallExpr:
				if wg := waitGroupRecv(info, v, "Done"); wg != nil {
					ops.dones[wg] = append(ops.dones[wg], v.Pos())
				}
			}
			return true
		})
	}
	walk(body)
	return ops
}

// waitGroupRecv returns the sync.WaitGroup variable of a wg.<method>()
// call, or nil.
func waitGroupRecv(info *types.Info, call *ast.CallExpr, method string) *types.Var {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil
	}
	id := rootIdent(sel.X)
	if id == nil {
		return nil
	}
	obj, ok := info.ObjectOf(id).(*types.Var)
	if !ok {
		return nil
	}
	t := obj.Type()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	if named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup" {
		return obj
	}
	return nil
}

// spawnerPathAvoidsRecv reports whether some thread-0 path from the
// spawn point reaches function exit without receiving from ch. A node
// that waits on a WaitGroup the goroutine itself must Done counts as
// avoiding: the Wait can never complete while the send blocks, so any
// receive beyond it is unreachable.
func spawnerPathAvoidsRecv(g *CFG, spawn ref, info *types.Info, ch *types.Var, goroutineDones map[*types.Var]bool) bool {
	const (
		evNone = iota
		evRecv
		evBarrier
	)
	classify := func(n ast.Node) int {
		best := evNone
		var bestPos int
		ast.Inspect(n, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			ev := evNone
			switch v := m.(type) {
			case *ast.UnaryExpr:
				if v.Op == arrowOp {
					if id, ok := ast.Unparen(v.X).(*ast.Ident); ok {
						if obj, _ := info.ObjectOf(id).(*types.Var); obj == ch {
							ev = evRecv
						}
					}
				}
			case *ast.RangeStmt:
				if id, ok := ast.Unparen(v.X).(*ast.Ident); ok {
					if obj, _ := info.ObjectOf(id).(*types.Var); obj == ch {
						ev = evRecv
					}
				}
			case *ast.CallExpr:
				if wg := waitGroupRecv(info, v, "Wait"); wg != nil && goroutineDones[wg] {
					ev = evBarrier
				}
			}
			if ev != evNone && (best == evNone || int(m.Pos()) < bestPos) {
				best, bestPos = ev, int(m.Pos())
			}
			return true
		})
		return best
	}

	visited := make(map[*Block]bool)
	var fromStart func(b *Block) bool
	scan := func(b *Block, from int) (bool, bool) {
		for i := from; i < len(b.Nodes); i++ {
			switch classify(b.Nodes[i]) {
			case evRecv:
				return false, true
			case evBarrier:
				return true, true
			}
		}
		return false, false
	}
	fromStart = func(b *Block) bool {
		if b == g.Exit {
			return true
		}
		if visited[b] {
			return false
		}
		visited[b] = true
		if done, decided := scan(b, 0); decided {
			return done
		}
		for _, s := range b.Succs {
			if fromStart(s) {
				return true
			}
		}
		return false
	}

	if done, decided := scan(spawn.block, spawn.idx+1); decided {
		return done
	}
	for _, s := range spawn.block.Succs {
		if fromStart(s) {
			return true
		}
	}
	return false
}
