package lint

import (
	"go/ast"
	"go/token"
)

// This file is the first half of scatterlint's shared dataflow layer:
// an intraprocedural control-flow graph over the parsed syntax, with
// dominator and reachability queries. The CFG is deliberately
// statement-grained — each basic block holds the ast.Nodes that
// execute in it, in order — which is exactly the granularity the
// dataflow analyzers (poolalias, detorder, ledgerorder) need:
// "does this pin dominate that alias", "can an append precede this
// reclaim on any path". Function literals are not inlined; each
// FuncLit body gets its own CFG and cross-closure effects flow
// through the package summary table (summary.go) instead.

// A Block is one basic block: a maximal straight-line node sequence.
type Block struct {
	// Index is the block's position in CFG.Blocks.
	Index int
	// Nodes are the statements and control expressions executed in
	// this block, in execution order. Loop headers carry their
	// condition (ForStmt.Cond) or the RangeStmt itself.
	Nodes []ast.Node
	// Succs and Preds are the control-flow edges.
	Succs []*Block
	Preds []*Block
}

// A CFG is the control-flow graph of one function body.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block

	// Branches records every two-way conditional the builder emitted:
	// Cond is evaluated at the end of From, after which control moves
	// to True or False. The SSA interval layer uses these edges to
	// refine value ranges under dominating guards (`if g <= 0 { return
	// }` proves g >= 1 below). Switches and selects are deliberately
	// absent: their dispatch is n-way and the refinement layer treats
	// them as unrefined joins.
	Branches []CondEdge

	// idom[b] is the index of block b's immediate dominator: -1 for
	// Entry and for blocks unreachable from it.
	idom []int
	// reach[a][b] reports whether a nonempty path leads from a to b.
	reach [][]bool
}

// A CondEdge is one two-way conditional branch of the CFG.
type CondEdge struct {
	Cond  ast.Expr
	From  *Block
	True  *Block
	False *Block
}

// A ref addresses one node inside a CFG: the idx-th node of a block.
// Pseudo-definitions that precede every node of the entry block
// (parameters, named results) use idx -1.
type ref struct {
	block *Block
	idx   int
}

// BuildCFG constructs the CFG of a function body. Panics never: any
// statement the builder does not model (goto into the unknown) is
// approximated by an edge to Exit, which only ever weakens the
// analyzers toward silence, not false positives.
func BuildCFG(body *ast.BlockStmt) *CFG {
	g := &CFG{}
	b := &cfgBuilder{g: g}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	b.cur = g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.edge(b.cur, g.Exit)
	g.finalize()
	return g
}

// Dominates reports whether every execution reaching b has already
// executed a. Within a block, earlier nodes dominate later ones.
func (g *CFG) Dominates(a, b ref) bool {
	if a.block == b.block {
		return a.idx < b.idx
	}
	return g.dominates(a.block, b.block)
}

// dominates reports whether block a dominates block b, by walking b's
// dominator-tree chain. A block unreachable from Entry is dominated by
// every block, so dominance queries on dead code are vacuously true —
// the conservative direction for "a required action dominates this
// site" checks.
func (g *CFG) dominates(a, b *Block) bool {
	if !g.ReachableFromEntry(b) {
		return true
	}
	for i := b.Index; i != -1; i = g.idom[i] {
		if i == a.Index {
			return true
		}
	}
	return false
}

// CanPrecede reports whether some execution can pass through a before
// reaching b — the weakest ordering fact, used where strict dominance
// would reject legitimate conditional protocols (a checkpoint append
// inside a loop before a conditional reclaim).
func (g *CFG) CanPrecede(a, b ref) bool {
	if a.block == b.block && a.idx < b.idx {
		return true
	}
	return g.reach[a.block.Index][b.block.Index]
}

// RefAt locates the innermost CFG node containing pos.
func (g *CFG) RefAt(pos token.Pos) (ref, bool) {
	var best ref
	var bestSize token.Pos
	found := false
	for _, blk := range g.Blocks {
		for i, n := range blk.Nodes {
			if n.Pos() <= pos && pos < n.End() {
				size := n.End() - n.Pos()
				if !found || size < bestSize {
					best, bestSize, found = ref{blk, i}, size, true
				}
			}
		}
	}
	return best, found
}

// cfgBuilder carries the under-construction graph and the break /
// continue / fallthrough targets of the enclosing statements.
type cfgBuilder struct {
	g   *CFG
	cur *Block
	// ctx is a stack of enclosing breakable/continuable statements.
	ctx []loopCtx
	// fallthroughs is a stack of fallthrough targets, one per
	// enclosing switch case (nil for the last case).
	fallthroughs []*Block
}

// loopCtx is one enclosing loop, switch or select: where break and
// continue (nil for non-loops) jump to.
type loopCtx struct {
	label string
	brk   *Block
	cont  *Block
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

func (b *cfgBuilder) append(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt translates one statement. label is the enclosing label name, if
// the statement was wrapped in a LabeledStmt.
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch v := s.(type) {
	case *ast.LabeledStmt:
		b.stmt(v.Stmt, v.Label.Name)

	case *ast.BlockStmt:
		b.stmtList(v.List)

	case *ast.IfStmt:
		if v.Init != nil {
			b.append(v.Init)
		}
		b.append(v.Cond)
		cond := b.cur
		then := b.newBlock()
		join := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmtList(v.Body.List)
		b.edge(b.cur, join)
		if v.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(v.Else, "")
			b.edge(b.cur, join)
			b.g.Branches = append(b.g.Branches, CondEdge{Cond: v.Cond, From: cond, True: then, False: els})
		} else {
			b.edge(cond, join)
			b.g.Branches = append(b.g.Branches, CondEdge{Cond: v.Cond, From: cond, True: then, False: join})
		}
		b.cur = join

	case *ast.ForStmt:
		if v.Init != nil {
			b.append(v.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		if v.Cond != nil {
			head.Nodes = append(head.Nodes, v.Cond)
		}
		body := b.newBlock()
		exit := b.newBlock()
		b.edge(head, body)
		if v.Cond != nil {
			b.edge(head, exit)
			b.g.Branches = append(b.g.Branches, CondEdge{Cond: v.Cond, From: head, True: body, False: exit})
		}
		// continue runs the post statement (if any) before the header.
		cont := head
		if v.Post != nil {
			cont = b.newBlock()
			cont.Nodes = append(cont.Nodes, v.Post)
			b.edge(cont, head)
		}
		b.ctx = append(b.ctx, loopCtx{label: label, brk: exit, cont: cont})
		b.cur = body
		b.stmtList(v.Body.List)
		b.edge(b.cur, cont)
		b.ctx = b.ctx[:len(b.ctx)-1]
		b.cur = exit

	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(b.cur, head)
		// The RangeStmt node itself carries the ranged expression and
		// the key/value definitions for the header.
		head.Nodes = append(head.Nodes, v)
		body := b.newBlock()
		exit := b.newBlock()
		b.edge(head, body)
		b.edge(head, exit)
		b.ctx = append(b.ctx, loopCtx{label: label, brk: exit, cont: head})
		b.cur = body
		b.stmtList(v.Body.List)
		b.edge(b.cur, head)
		b.ctx = b.ctx[:len(b.ctx)-1]
		b.cur = exit

	case *ast.SwitchStmt:
		if v.Init != nil {
			b.append(v.Init)
		}
		if v.Tag != nil {
			b.append(v.Tag)
		}
		b.cases(v.Body.List, label, nil)

	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			b.append(v.Init)
		}
		b.append(v.Assign)
		b.cases(v.Body.List, label, nil)

	case *ast.SelectStmt:
		b.cases(v.Body.List, label, func(c ast.Stmt) ast.Stmt {
			return c.(*ast.CommClause).Comm
		})

	case *ast.ReturnStmt:
		b.append(v)
		b.edge(b.cur, b.g.Exit)
		b.cur = b.newBlock() // unreachable continuation

	case *ast.BranchStmt:
		b.append(v)
		switch v.Tok {
		case token.BREAK:
			if t := b.target(v.Label, false); t != nil {
				b.edge(b.cur, t)
			} else {
				b.edge(b.cur, b.g.Exit)
			}
		case token.CONTINUE:
			if t := b.target(v.Label, true); t != nil {
				b.edge(b.cur, t)
			} else {
				b.edge(b.cur, b.g.Exit)
			}
		case token.FALLTHROUGH:
			if n := len(b.fallthroughs); n > 0 && b.fallthroughs[n-1] != nil {
				b.edge(b.cur, b.fallthroughs[n-1])
			}
		case token.GOTO:
			// Approximated: goto is not used in this repository.
			b.edge(b.cur, b.g.Exit)
		}
		b.cur = b.newBlock() // unreachable continuation

	default:
		// Assign, Decl, Expr, Go, Defer, Send, IncDec, Empty: straight-line.
		b.append(s)
	}
}

// cases translates the clause list of a switch, type switch or select.
// comm extracts the clause's communication statement for selects (nil
// for switches, whose clauses carry case expressions instead).
func (b *cfgBuilder) cases(clauses []ast.Stmt, label string, comm func(ast.Stmt) ast.Stmt) {
	entry := b.cur
	join := b.newBlock()
	hasDefault := false
	blocks := make([]*Block, len(clauses))
	for i, c := range clauses {
		blocks[i] = b.newBlock()
		b.edge(entry, blocks[i])
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			}
		}
	}
	if !hasDefault && comm == nil {
		// A switch without default can fall straight through.
		b.edge(entry, join)
	}
	b.ctx = append(b.ctx, loopCtx{label: label, brk: join})
	for i, c := range clauses {
		b.cur = blocks[i]
		var body []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				b.append(e)
			}
			body = cc.Body
		case *ast.CommClause:
			if comm != nil && comm(c) != nil {
				b.stmt(comm(c), "")
			}
			body = cc.Body
		}
		next := (*Block)(nil)
		if i+1 < len(blocks) {
			next = blocks[i+1]
		}
		b.fallthroughs = append(b.fallthroughs, next)
		b.stmtList(body)
		b.fallthroughs = b.fallthroughs[:len(b.fallthroughs)-1]
		b.edge(b.cur, join)
	}
	b.ctx = b.ctx[:len(b.ctx)-1]
	b.cur = join
}

// target resolves a break (wantCont=false) or continue (wantCont=true)
// to its jump block, honoring labels.
func (b *cfgBuilder) target(label *ast.Ident, wantCont bool) *Block {
	for i := len(b.ctx) - 1; i >= 0; i-- {
		c := b.ctx[i]
		if label != nil && c.label != label.Name {
			continue
		}
		if wantCont {
			if c.cont != nil {
				return c.cont
			}
			if label != nil {
				return nil
			}
			continue // continue skips switch/select contexts
		}
		return c.brk
	}
	return nil
}

// ReachableFromEntry reports whether blk can execute at all. Blocks
// the builder created as unreachable continuations (after return,
// break, ...) are vacuously dominated by every block; path-sensitive
// layers must skip them.
func (g *CFG) ReachableFromEntry(blk *Block) bool {
	return blk == g.Entry || g.reach[g.Entry.Index][blk.Index]
}

// soleReachablePred returns blk's only predecessor reachable from
// Entry, or nil if there are zero or several. A conditional successor
// with a sole reachable predecessor is edge-dominated by its branch:
// every execution entering it just evaluated the condition.
func (g *CFG) soleReachablePred(blk *Block) *Block {
	var sole *Block
	for _, p := range blk.Preds {
		if !g.ReachableFromEntry(p) {
			continue
		}
		if sole != nil && sole != p {
			return nil
		}
		sole = p
	}
	return sole
}

// finalize fills predecessor edges and computes the dominator tree and
// the reachability relation.
func (g *CFG) finalize() {
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	n := len(g.Blocks)

	// Immediate dominators by the Cooper–Harvey–Kennedy iteration over
	// the blocks reachable from Entry, in reverse postorder; po holds
	// each block's postorder number (-1: unreachable).
	po := make([]int, n)
	for i := range po {
		po[i] = -1
	}
	var order []*Block // postorder
	visited := make([]bool, n)
	var dfs func(b *Block)
	dfs = func(b *Block) {
		visited[b.Index] = true
		for _, s := range b.Succs {
			if !visited[s.Index] {
				dfs(s)
			}
		}
		po[b.Index] = len(order)
		order = append(order, b)
	}
	dfs(g.Entry)
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[g.Entry.Index] = g.Entry.Index
	intersect := func(a, b int) int {
		for a != b {
			for po[a] < po[b] {
				a = idom[a]
			}
			for po[b] < po[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for k := len(order) - 2; k >= 0; k-- { // order[len-1] is Entry
			blk := order[k]
			nd := -1
			for _, p := range blk.Preds {
				if idom[p.Index] == -1 {
					continue // unreachable or not yet processed
				}
				if nd == -1 {
					nd = p.Index
				} else {
					nd = intersect(p.Index, nd)
				}
			}
			if idom[blk.Index] != nd {
				idom[blk.Index] = nd
				changed = true
			}
		}
	}
	idom[g.Entry.Index] = -1
	g.idom = idom

	// Forward reachability over nonempty paths, by DFS from each block.
	reach := make([][]bool, n)
	for i, blk := range g.Blocks {
		r := make([]bool, n)
		stack := append([]*Block(nil), blk.Succs...)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if r[x.Index] {
				continue
			}
			r[x.Index] = true
			stack = append(stack, x.Succs...)
		}
		reach[i] = r
	}
	g.reach = reach
}
