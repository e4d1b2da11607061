package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file lifts the statement-grained CFG (cfg.go) into SSA form:
// every use of a function-local variable resolves to exactly one
// immutable value — a parameter, one defining assignment, or a phi
// merging the values that flow into a join block. Placement is
// minimal: phis sit on the iterated dominance frontier of a variable's
// definition blocks, computed over the CFG's dominator tree (cfg.go).
// A phi no use reaches is never read, so it changes no answer. The
// sparse fact layers (interval.go) attach constant/interval/nilness
// lattices to these values instead of re-solving a dense
// per-program-point fixpoint, which is what lets the v3 analyzers
// (bandcheck, collectivedeadlock) reason about value flow at a cost
// proportional to the number of values, not statements. SSA is built
// per function on demand, the first time an analyzer queries a fact
// there (funcUnit.engine).
//
// Variables that escape single-assignment reasoning — address-taken
// locals and variables shared with closures — are demoted wholesale:
// every use maps to ValUnknown, which the fact layers treat as top.
// This only ever silences analyzers, never miscounts a proof.

// An SSAValue is one immutable value of a function-local variable:
// one of ValParam, ValDef, ValPhi or ValUnknown, each carrying the
// source-level variable it instantiates in Obj.
type SSAValue interface{ ssaValue() }

// ValParam is the value a parameter, receiver or named result holds on
// entry.
type ValParam struct{ Obj *types.Var }

// ValDef is the value produced by one defining node: an assignment,
// declaration, range binding, IncDec or compound assignment.
type ValDef struct {
	Obj *types.Var
	// Rhs is the defining expression (shared by all LHS of a tuple
	// assignment, with TupleIdx selecting the result). It is nil for
	// zero-value declarations, range bindings, IncDec and compound
	// assignments; the fact layers recover those through Node.
	Rhs      ast.Expr
	TupleIdx int
	// Node is the defining statement or control node.
	Node ast.Node
	At   ref
}

// ValPhi merges the values reaching a join block, one argument per
// reachable predecessor (parallel to Preds).
type ValPhi struct {
	Obj   *types.Var
	Block *Block
	Preds []*Block
	Args  []SSAValue
}

// ValUnknown is the demoted value of an address-taken or
// closure-shared variable, and of uses the renamer cannot resolve.
type ValUnknown struct{ Obj *types.Var }

func (*ValParam) ssaValue()   {}
func (*ValDef) ssaValue()     {}
func (*ValPhi) ssaValue()     {}
func (*ValUnknown) ssaValue() {}

// An SSAFunc is the SSA form of one function or function literal.
type SSAFunc struct {
	G    *CFG
	Info *types.Info
	// UseValue maps every resolved use identifier of a tracked local
	// to its SSA value. Unresolved identifiers (package globals,
	// captured outers) are absent.
	UseValue map[*ast.Ident]SSAValue
	// Phis lists the phi nodes at each block head.
	Phis map[*Block][]*ValPhi

	// unsafe marks variables demoted to ValUnknown.
	unsafe map[*types.Var]bool
}

// ssaDef is one definition discovered while scanning a node, in
// execution order.
type ssaDef struct {
	id  *ast.Ident
	obj *types.Var
	rhs ast.Expr
	idx int
}

// BuildSSA constructs SSA form for one function body over its CFG.
// recv and ftype seed the entry values; either may be nil.
func BuildSSA(g *CFG, info *types.Info, recv *ast.FieldList, ftype *ast.FuncType, body *ast.BlockStmt) *SSAFunc {
	f := &SSAFunc{
		G:        g,
		Info:     info,
		UseValue: make(map[*ast.Ident]SSAValue),
		Phis:     make(map[*Block][]*ValPhi),
		unsafe:   make(map[*types.Var]bool),
	}

	// Entry values and tracked-variable set.
	entryVars := entryVarList(info, recv, ftype)
	tracked := make(map[*types.Var]bool)
	for _, v := range entryVars {
		tracked[v] = true
	}
	defBlocks := make(map[*types.Var]map[*Block]bool)
	noteDef := func(obj *types.Var, blk *Block) {
		tracked[obj] = true
		if defBlocks[obj] == nil {
			defBlocks[obj] = make(map[*Block]bool)
		}
		defBlocks[obj][blk] = true
	}
	for _, v := range entryVars {
		noteDef(v, g.Entry)
	}
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			for _, d := range nodeDefs(info, n) {
				noteDef(d.obj, blk)
			}
		}
	}

	// Demote address-taken and closure-shared variables.
	f.findUnsafe(body, tracked)

	// Minimal phi placement: the iterated dominance frontier of the
	// def blocks.
	frontier := f.dominanceFrontiers()
	ordered := orderedVars(tracked)
	for _, obj := range ordered {
		if f.unsafe[obj] {
			continue
		}
		blocks := defBlocks[obj]
		if len(blocks) == 0 {
			continue
		}
		work := make([]*Block, 0, len(blocks))
		inWork := make(map[*Block]bool, len(blocks))
		for blk := range blocks {
			work = append(work, blk)
			inWork[blk] = true
		}
		sort.Slice(work, func(i, j int) bool { return work[i].Index < work[j].Index })
		hasPhi := make(map[*Block]bool)
		for len(work) > 0 {
			blk := work[len(work)-1]
			work = work[:len(work)-1]
			for _, fb := range frontier[blk.Index] {
				if hasPhi[fb] {
					continue
				}
				hasPhi[fb] = true
				preds := reachablePreds(g, fb)
				phi := &ValPhi{Obj: obj, Block: fb, Preds: preds, Args: make([]SSAValue, len(preds))}
				f.Phis[fb] = append(f.Phis[fb], phi)
				if !inWork[fb] {
					inWork[fb] = true
					work = append(work, fb)
				}
			}
		}
	}

	// Rename along the dominator tree.
	f.rename(entryVars)
	return f
}

// ValueAt returns the SSA value a use identifier resolves to, or nil
// for identifiers the SSA layer does not track.
func (f *SSAFunc) ValueAt(id *ast.Ident) SSAValue {
	return f.UseValue[id]
}

// entryVarList collects receiver, parameter and named-result
// variables in declaration order.
func entryVarList(info *types.Info, recv *ast.FieldList, ftype *ast.FuncType) []*types.Var {
	var out []*types.Var
	for _, fl := range []*ast.FieldList{recv, paramsOf(ftype), resultsOf(ftype)} {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if v, ok := info.ObjectOf(name).(*types.Var); ok && name.Name != "_" {
					out = append(out, v)
				}
			}
		}
	}
	return out
}

// nodeDefs lists the definitions a single CFG node performs, in
// execution order. IncDec and compound assignments define through
// their Node (Rhs nil); the fact layers look at Node to recover the
// operation.
func nodeDefs(info *types.Info, n ast.Node) []ssaDef {
	var out []ssaDef
	add := func(id *ast.Ident, rhs ast.Expr, idx int) {
		if id == nil || id.Name == "_" {
			return
		}
		if obj, ok := info.ObjectOf(id).(*types.Var); ok && obj != nil {
			out = append(out, ssaDef{id: id, obj: obj, rhs: rhs, idx: idx})
		}
	}
	switch v := n.(type) {
	case *ast.AssignStmt:
		if v.Tok == token.ASSIGN || v.Tok == token.DEFINE {
			forEachDef(v.Lhs, v.Rhs, func(id *ast.Ident, rhs ast.Expr, ti int) { add(id, rhs, ti) })
			break
		}
		// Compound assignment (+=, -=, ...): single LHS, use-then-def.
		if len(v.Lhs) == 1 {
			add(identOf(v.Lhs[0]), nil, 0)
		}
	case *ast.IncDecStmt:
		add(identOf(v.X), nil, 0)
	case *ast.DeclStmt:
		gd, ok := v.Decl.(*ast.GenDecl)
		if !ok {
			break
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			switch {
			case len(vs.Values) == len(vs.Names):
				for i, name := range vs.Names {
					add(name, vs.Values[i], 0)
				}
			case len(vs.Values) == 1:
				for i, name := range vs.Names {
					add(name, vs.Values[0], i)
				}
			default:
				for _, name := range vs.Names {
					add(name, nil, 0)
				}
			}
		}
	case *ast.RangeStmt:
		add(identOf(v.Key), nil, 0)
		add(identOf(v.Value), nil, 0)
	case *ast.TypeSwitchStmt:
		// `switch x := y.(type)` defines per-clause implicits the SSA
		// layer does not model; the assign's identifier is tracked
		// conservatively as unknown via findUnsafe below.
	}
	return out
}

// pureDefIdents returns the identifiers a node defines WITHOUT reading
// their prior value — the ones the use-scan must skip. IncDec and
// compound-assign targets read before writing, so they are uses too
// and are not listed here.
func pureDefIdents(info *types.Info, n ast.Node) map[*ast.Ident]bool {
	out := make(map[*ast.Ident]bool)
	switch v := n.(type) {
	case *ast.AssignStmt:
		if v.Tok != token.ASSIGN && v.Tok != token.DEFINE {
			break
		}
		for _, lhs := range v.Lhs {
			if id := identOf(lhs); id != nil {
				out[id] = true
			}
		}
	case *ast.DeclStmt, *ast.RangeStmt:
		for _, d := range nodeDefs(info, n) {
			out[d.id] = true
		}
	}
	return out
}

// findUnsafe demotes variables whose value the SSA renamer cannot
// follow: address-taken locals, variables read or written inside
// nested function literals, and type-switch bindings.
func (f *SSAFunc) findUnsafe(body *ast.BlockStmt, tracked map[*types.Var]bool) {
	if body == nil {
		return
	}
	markExpr := func(e ast.Expr) {
		if id := rootIdent(e); id != nil {
			if obj, ok := f.Info.ObjectOf(id).(*types.Var); ok && tracked[obj] {
				f.unsafe[obj] = true
			}
		}
	}
	var inLit int
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch v := m.(type) {
			case *ast.FuncLit:
				if m == n {
					return true
				}
				inLit++
				walk(v.Body)
				inLit--
				return false
			case *ast.UnaryExpr:
				if v.Op == token.AND {
					markExpr(v.X)
				}
			case *ast.TypeSwitchStmt:
				if assign, ok := v.Assign.(*ast.AssignStmt); ok && len(assign.Lhs) == 1 {
					markExpr(assign.Lhs[0])
				}
			case *ast.Ident:
				if inLit > 0 {
					if obj, ok := f.Info.ObjectOf(v).(*types.Var); ok && tracked[obj] {
						f.unsafe[obj] = true
					}
				}
			}
			return true
		})
	}
	walk(body)
}

// dominanceFrontiers computes DF(b) for every reachable block with the
// Cooper–Harvey–Kennedy walk over reachable predecessors.
func (f *SSAFunc) dominanceFrontiers() [][]*Block {
	g := f.G
	out := make([][]*Block, len(g.Blocks))
	seen := make([]map[int]bool, len(g.Blocks))
	for _, blk := range g.Blocks {
		if !g.ReachableFromEntry(blk) {
			continue
		}
		preds := reachablePreds(g, blk)
		if len(preds) < 2 {
			continue
		}
		for _, p := range preds {
			runner := p.Index
			for runner != -1 && runner != g.idom[blk.Index] {
				if seen[runner] == nil {
					seen[runner] = make(map[int]bool)
				}
				if !seen[runner][blk.Index] {
					seen[runner][blk.Index] = true
					out[runner] = append(out[runner], blk)
				}
				runner = g.idom[runner]
			}
		}
	}
	return out
}

// nodeUses lists the identifiers a node reads, skipping nested
// function-literal bodies and pure-definition targets. A RangeStmt
// node stands for its loop header only: its body's statements are
// nodes of the body blocks.
func nodeUses(info *types.Info, n ast.Node) []*ast.Ident {
	pure := pureDefIdents(info, n)
	var out []*ast.Ident
	scan := func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch v := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.Ident:
				if !pure[v] {
					out = append(out, v)
				}
			}
			return true
		})
	}
	rs, ok := n.(*ast.RangeStmt)
	if !ok {
		scan(n)
		return out
	}
	for _, e := range []ast.Expr{rs.Key, rs.Value, rs.X} {
		if e != nil {
			scan(e)
		}
	}
	return out
}

// reachablePreds returns blk's predecessors reachable from entry, in
// block-index order.
func reachablePreds(g *CFG, blk *Block) []*Block {
	var out []*Block
	for _, p := range blk.Preds {
		if g.ReachableFromEntry(p) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// orderedVars sorts a variable set by source position for
// deterministic phi emission.
func orderedVars(set map[*types.Var]bool) []*types.Var {
	out := make([]*types.Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// rename walks the dominator tree assigning SSA values to every use
// and wiring phi arguments.
func (f *SSAFunc) rename(entryVars []*types.Var) {
	g := f.G
	// Dominator-tree children, in index order for determinism.
	children := make([][]int, len(g.Blocks))
	for _, blk := range g.Blocks {
		if p := g.idom[blk.Index]; p != -1 {
			children[p] = append(children[p], blk.Index)
		}
	}

	stacks := make(map[*types.Var][]SSAValue)
	top := func(obj *types.Var) SSAValue {
		if f.unsafe[obj] {
			return &ValUnknown{Obj: obj}
		}
		if s := stacks[obj]; len(s) > 0 {
			return s[len(s)-1]
		}
		return &ValUnknown{Obj: obj}
	}

	var visit func(idx int)
	visit = func(idx int) {
		blk := g.Blocks[idx]
		pushed := 0
		var pushedVars []*types.Var
		push := func(obj *types.Var, v SSAValue) {
			stacks[obj] = append(stacks[obj], v)
			pushedVars = append(pushedVars, obj)
			pushed++
		}

		for _, phi := range f.Phis[blk] {
			push(phi.Obj, phi)
		}
		if blk == g.Entry {
			for _, obj := range entryVars {
				push(obj, &ValParam{Obj: obj})
			}
		}
		for i, node := range blk.Nodes {
			for _, id := range nodeUses(f.Info, node) {
				obj, ok := f.Info.ObjectOf(id).(*types.Var)
				if !ok || obj == nil {
					continue
				}
				if _, known := stacks[obj]; !known && !f.unsafe[obj] {
					continue // not a tracked local
				}
				f.UseValue[id] = top(obj)
			}
			for _, d := range nodeDefs(f.Info, node) {
				push(d.obj, &ValDef{Obj: d.obj, Rhs: d.rhs, TupleIdx: d.idx, Node: node, At: ref{blk, i}})
			}
		}
		for _, s := range blk.Succs {
			for _, phi := range f.Phis[s] {
				for pi, p := range phi.Preds {
					if p == blk {
						phi.Args[pi] = top(phi.Obj)
					}
				}
			}
		}
		for _, c := range children[idx] {
			visit(c)
		}
		for i := len(pushedVars) - 1; i >= 0; i-- {
			obj := pushedVars[i]
			stacks[obj] = stacks[obj][:len(stacks[obj])-1]
		}
	}
	visit(g.Entry.Index)
}
