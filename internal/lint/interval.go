package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"
	"sort"
)

// This file layers sparse value facts over SSA form (ssa.go): a signed
// 64-bit interval lattice for integer values and a three-point nilness
// lattice for reference values. Facts attach to SSA values, so the
// cost is proportional to the number of values actually queried, not
// to program points. Phi values are solved by a short bounded
// fixpoint — four passes, then widening of any still-moving bound to
// infinity — which is exact for the straight-line and guard-diamond
// shapes the analyzers prove and safely over-approximates loops.
//
// On top of the per-value facts sits branch-guard refinement: a use
// dominated by the True (or False) edge of a recorded CondEdge has the
// branch condition's constraints met into its interval, provided the
// guard tests the SAME SSA value as the use (version-exactness is what
// makes `if p <= 0 { return nil }; n / p` provably safe while leaving
// a reassigned p unrefined). Guard lookup walks the CFG's dominator
// tree (cfg.go).
//
// Each function's SSA form and engine are built on demand, by the
// first query an analyzer makes there (funcUnit.engine): bandcheck
// asks only at a matched solver entry-point call or a scoped divide,
// collectivedeadlock only at a make(chan T, n).

// An Interval is a range of int64 values, possibly unbounded on either
// side, possibly empty (the lattice bottom).
type Interval struct {
	Lo, Hi       int64
	LoInf, HiInf bool
	Empty        bool
}

// TopInterval is the unbounded interval (no information).
func TopInterval() Interval { return Interval{LoInf: true, HiInf: true} }

// EmptyInterval is the bottom of the lattice (unreachable value).
func EmptyInterval() Interval { return Interval{Empty: true} }

// ConstInterval is the point interval [c, c].
func ConstInterval(c int64) Interval { return Interval{Lo: c, Hi: c} }

// DefinitelyNegative reports whether every value in the interval is
// below zero.
func (iv Interval) DefinitelyNegative() bool { return !iv.Empty && !iv.HiInf && iv.Hi < 0 }

// DefinitelyNonNegative reports whether every value is zero or above.
func (iv Interval) DefinitelyNonNegative() bool { return !iv.Empty && !iv.LoInf && iv.Lo >= 0 }

// ExcludesZero reports whether zero is provably not in the interval.
func (iv Interval) ExcludesZero() bool {
	if iv.Empty {
		return true
	}
	return (!iv.LoInf && iv.Lo > 0) || (!iv.HiInf && iv.Hi < 0)
}

// JoinInterval is the lattice join (union hull).
func JoinInterval(a, b Interval) Interval {
	if a.Empty {
		return b
	}
	if b.Empty {
		return a
	}
	out := Interval{Lo: a.Lo, Hi: a.Hi, LoInf: a.LoInf || b.LoInf, HiInf: a.HiInf || b.HiInf}
	if !out.LoInf && b.Lo < out.Lo {
		out.Lo = b.Lo
	}
	if !out.HiInf && b.Hi > out.Hi {
		out.Hi = b.Hi
	}
	return out
}

// MeetInterval is the lattice meet (intersection).
func MeetInterval(a, b Interval) Interval {
	if a.Empty || b.Empty {
		return EmptyInterval()
	}
	out := Interval{Lo: a.Lo, Hi: a.Hi, LoInf: a.LoInf && b.LoInf, HiInf: a.HiInf && b.HiInf}
	if a.LoInf {
		out.Lo = b.Lo
	} else if !b.LoInf && b.Lo > out.Lo {
		out.Lo = b.Lo
	}
	if a.HiInf {
		out.Hi = b.Hi
	} else if !b.HiInf && b.Hi < out.Hi {
		out.Hi = b.Hi
	}
	if !out.LoInf && !out.HiInf && out.Lo > out.Hi {
		return EmptyInterval()
	}
	return out
}

// WidenInterval sends any bound that moved between old and next to
// infinity, guaranteeing fixpoint termination.
func WidenInterval(old, next Interval) Interval {
	if old.Empty {
		return next
	}
	if next.Empty {
		return old
	}
	out := next
	if next.LoInf || (!old.LoInf && next.Lo < old.Lo) {
		out.LoInf = true
	} else if !old.LoInf {
		out.Lo, out.LoInf = old.Lo, false
	}
	if next.HiInf || (!old.HiInf && next.Hi > old.Hi) {
		out.HiInf = true
	} else if !old.HiInf {
		out.Hi, out.HiInf = old.Hi, false
	}
	// A widened bound keeps the joined finite value only on the
	// un-widened side; normalize the infinite side to zero for stable
	// equality comparisons.
	if out.LoInf {
		out.Lo = 0
	}
	if out.HiInf {
		out.Hi = 0
	}
	return out
}

func satAdd(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func satMul(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a == math.MinInt64 || b == math.MinInt64 {
		return 0, false
	}
	p := a * b
	if p/a != b {
		return 0, false
	}
	return p, true
}

// AddInterval computes {x+y : x∈a, y∈b} with saturation to infinity.
func AddInterval(a, b Interval) Interval {
	if a.Empty || b.Empty {
		return EmptyInterval()
	}
	out := Interval{LoInf: a.LoInf || b.LoInf, HiInf: a.HiInf || b.HiInf}
	if !out.LoInf {
		if lo, ok := satAdd(a.Lo, b.Lo); ok {
			out.Lo = lo
		} else {
			out.LoInf = true
		}
	}
	if !out.HiInf {
		if hi, ok := satAdd(a.Hi, b.Hi); ok {
			out.Hi = hi
		} else {
			out.HiInf = true
		}
	}
	return out
}

// NegInterval computes {-x : x∈a}.
func NegInterval(a Interval) Interval {
	if a.Empty {
		return a
	}
	out := Interval{LoInf: a.HiInf, HiInf: a.LoInf}
	if !out.LoInf {
		if a.Hi == math.MinInt64 {
			out.LoInf = true // -MinInt64 is unrepresentable
		} else {
			out.Lo = -a.Hi
		}
	}
	if !out.HiInf {
		if a.Lo == math.MinInt64 {
			out.HiInf = true
		} else {
			out.Hi = -a.Lo
		}
	}
	return out
}

// SubInterval computes a - b.
func SubInterval(a, b Interval) Interval { return AddInterval(a, NegInterval(b)) }

// MulInterval computes a * b; unbounded operands collapse to top
// unless both are provably nonnegative.
func MulInterval(a, b Interval) Interval {
	if a.Empty || b.Empty {
		return EmptyInterval()
	}
	if a.LoInf || a.HiInf || b.LoInf || b.HiInf {
		if a.DefinitelyNonNegative() && b.DefinitelyNonNegative() {
			lo, ok := satMul(a.Lo, b.Lo)
			if !ok {
				lo = 0
			}
			return Interval{Lo: lo, HiInf: true}
		}
		return TopInterval()
	}
	first := true
	var out Interval
	for _, x := range [2]int64{a.Lo, a.Hi} {
		for _, y := range [2]int64{b.Lo, b.Hi} {
			p, ok := satMul(x, y)
			if !ok {
				return TopInterval()
			}
			if first {
				out = ConstInterval(p)
				first = false
				continue
			}
			out = JoinInterval(out, ConstInterval(p))
		}
	}
	return out
}

// Nilness is the three-point lattice for reference values.
type Nilness int

const (
	// NilMaybe is the top: the value may or may not be nil.
	NilMaybe Nilness = iota
	// NilAlways: the value is provably nil.
	NilAlways
	// NilNever: the value is provably non-nil.
	NilNever
)

func joinNilness(a, b Nilness) Nilness {
	if a == b {
		return a
	}
	return NilMaybe
}

// guard is one branch condition known to hold (truth=true) or to have
// failed (truth=false) on entry to a block.
type guard struct {
	cond  ast.Expr
	truth bool
}

// An intervalEngine answers interval and nilness queries over one
// function's SSA form, with branch-guard refinement.
type intervalEngine struct {
	f      *SSAFunc
	phiIv  map[*ValPhi]Interval
	phiNil map[*ValPhi]Nilness
	// nodeBlock locates every AST node of the function body (funclit
	// interiors excluded) in its CFG block, for guard lookup.
	nodeBlock map[ast.Node]*Block
	guards    map[*Block][]guard
}

const (
	intervalPhiPasses = 4
	refineDepth       = 8
)

// newIntervalEngine builds the fact engine for one SSA function.
func newIntervalEngine(f *SSAFunc) *intervalEngine {
	e := &intervalEngine{
		f:         f,
		phiIv:     make(map[*ValPhi]Interval),
		phiNil:    make(map[*ValPhi]Nilness),
		nodeBlock: make(map[ast.Node]*Block),
		guards:    make(map[*Block][]guard),
	}
	for _, blk := range f.G.Blocks {
		for _, n := range blk.Nodes {
			b := blk
			ast.Inspect(n, func(m ast.Node) bool {
				if _, ok := m.(*ast.FuncLit); ok && m != n {
					return false
				}
				if m != nil {
					e.nodeBlock[m] = b
				}
				return true
			})
		}
	}
	e.solvePhis()
	return e
}

// solvePhis runs the bounded interval fixpoint and the (finite)
// nilness fixpoint over all phi values.
func (e *intervalEngine) solvePhis() {
	var phis []*ValPhi
	for _, blk := range e.f.G.Blocks {
		phis = append(phis, e.f.Phis[blk]...)
	}
	sort.Slice(phis, func(i, j int) bool {
		if phis[i].Block.Index != phis[j].Block.Index {
			return phis[i].Block.Index < phis[j].Block.Index
		}
		return phis[i].Obj.Pos() < phis[j].Obj.Pos()
	})
	for _, p := range phis {
		e.phiIv[p] = EmptyInterval()
	}
	joinArgs := func(p *ValPhi) Interval {
		out := EmptyInterval()
		for _, a := range p.Args {
			if a == nil {
				return TopInterval()
			}
			out = JoinInterval(out, e.valueInterval(a, refineDepth))
		}
		return out
	}
	stable := false
	for pass := 0; pass < intervalPhiPasses && !stable; pass++ {
		stable = true
		for _, p := range phis {
			nv := joinArgs(p)
			if nv != e.phiIv[p] {
				stable = false
				e.phiIv[p] = nv
			}
		}
	}
	if !stable {
		for _, p := range phis {
			e.phiIv[p] = WidenInterval(e.phiIv[p], joinArgs(p))
		}
		// One more pass so widened values propagate through dependent
		// phis before queries begin.
		for _, p := range phis {
			e.phiIv[p] = WidenInterval(e.phiIv[p], joinArgs(p))
		}
	}

	// Nilness: finite lattice, iterate to fixpoint.
	for changed := true; changed; {
		changed = false
		for _, p := range phis {
			nv := e.joinNilArgs(p)
			if old, ok := e.phiNil[p]; !ok || old != nv {
				e.phiNil[p] = nv
				changed = true
			}
		}
	}
}

func (e *intervalEngine) joinNilArgs(p *ValPhi) Nilness {
	first := true
	var out Nilness
	for _, a := range p.Args {
		if a == nil {
			return NilMaybe
		}
		av := e.valueNilness(a, refineDepth)
		if first {
			out, first = av, false
			continue
		}
		out = joinNilness(out, av)
	}
	if first {
		return NilMaybe
	}
	return out
}

// IntervalOf returns the guard-refined interval of a use identifier.
func (e *intervalEngine) IntervalOf(id *ast.Ident) Interval {
	return e.IntervalOfExpr(id)
}

// IntervalOfExpr evaluates any expression of the function body,
// refining identifier uses by the branch guards dominating their
// block.
func (e *intervalEngine) IntervalOfExpr(expr ast.Expr) Interval {
	return e.exprInterval(expr, refineDepth)
}

// NilnessOfExpr evaluates the nilness of an expression, guard-refined.
func (e *intervalEngine) NilnessOfExpr(expr ast.Expr) Nilness {
	return e.exprNilness(expr, refineDepth)
}

func isIntegerExpr(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

// exprInterval evaluates an integer expression to an interval.
func (e *intervalEngine) exprInterval(expr ast.Expr, depth int) Interval {
	if depth <= 0 {
		return TopInterval()
	}
	expr = ast.Unparen(expr)
	info := e.f.Info
	// Constant folding first: the type checker already evaluated
	// every constant expression exactly.
	if tv, ok := info.Types[expr]; ok && tv.Value != nil {
		if c, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
			return ConstInterval(c)
		}
		return TopInterval()
	}
	if !isIntegerExpr(info, expr) {
		return TopInterval()
	}
	switch v := expr.(type) {
	case *ast.Ident:
		val := e.f.UseValue[v]
		if val == nil {
			return TopInterval()
		}
		base := e.valueInterval(val, depth-1)
		return e.refineInterval(base, val, e.nodeBlock[v], depth-1)
	case *ast.UnaryExpr:
		if v.Op == token.SUB {
			return NegInterval(e.exprInterval(v.X, depth-1))
		}
	case *ast.BinaryExpr:
		a := e.exprInterval(v.X, depth-1)
		b := e.exprInterval(v.Y, depth-1)
		switch v.Op {
		case token.ADD:
			return AddInterval(a, b)
		case token.SUB:
			return SubInterval(a, b)
		case token.MUL:
			return MulInterval(a, b)
		case token.QUO:
			// Only the easy sound case: both nonnegative, divisor ≥ 1.
			if a.DefinitelyNonNegative() && !b.Empty && !b.LoInf && b.Lo >= 1 {
				out := Interval{Lo: 0, HiInf: a.HiInf}
				if !a.HiInf {
					out.Hi = a.Hi / b.Lo
				}
				return out
			}
		case token.REM:
			if a.DefinitelyNonNegative() && !b.Empty && !b.LoInf && b.Lo >= 1 {
				out := Interval{Lo: 0, HiInf: b.HiInf}
				if !b.HiInf {
					out.Hi = b.Hi - 1
				}
				return out
			}
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && len(v.Args) == 1 {
			if obj, ok := info.Uses[id].(*types.Builtin); ok && (obj.Name() == "len" || obj.Name() == "cap") {
				return Interval{Lo: 0, HiInf: true}
			}
		}
		// Integer conversion: pass the operand through when it
		// provably fits the target type, else top.
		if len(v.Args) == 1 {
			if tv, ok := info.Types[v.Fun]; ok && tv.IsType() {
				inner := e.exprInterval(v.Args[0], depth-1)
				if fitsIn(inner, tv.Type) {
					return inner
				}
			}
		}
	}
	return TopInterval()
}

// fitsIn reports whether every value of iv is representable in the
// integer type t without truncation.
func fitsIn(iv Interval, t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return false
	}
	if iv.Empty || iv.LoInf || iv.HiInf {
		return false
	}
	var lo, hi int64
	switch basic.Kind() {
	case types.Int8:
		lo, hi = math.MinInt8, math.MaxInt8
	case types.Int16:
		lo, hi = math.MinInt16, math.MaxInt16
	case types.Int32:
		lo, hi = math.MinInt32, math.MaxInt32
	case types.Int, types.Int64:
		lo, hi = math.MinInt64, math.MaxInt64
	case types.Uint8:
		lo, hi = 0, math.MaxUint8
	case types.Uint16:
		lo, hi = 0, math.MaxUint16
	case types.Uint32:
		lo, hi = 0, math.MaxUint32
	case types.Uint, types.Uint64, types.Uintptr:
		lo, hi = 0, math.MaxInt64
	default:
		return false
	}
	return iv.Lo >= lo && iv.Hi <= hi
}

// valueInterval evaluates one SSA value, unrefined.
func (e *intervalEngine) valueInterval(v SSAValue, depth int) Interval {
	if depth <= 0 {
		return TopInterval()
	}
	switch val := v.(type) {
	case *ValParam, *ValUnknown:
		return TopInterval()
	case *ValPhi:
		if iv, ok := e.phiIv[val]; ok {
			return iv
		}
		return TopInterval()
	case *ValDef:
		return e.defInterval(val, depth)
	}
	return TopInterval()
}

// defInterval evaluates a defining node's produced value.
func (e *intervalEngine) defInterval(d *ValDef, depth int) Interval {
	if !isIntegerVar(d.Obj) {
		return TopInterval()
	}
	switch n := d.Node.(type) {
	case *ast.IncDecStmt:
		old := TopInterval()
		if id := identOf(n.X); id != nil {
			if prev := e.f.UseValue[id]; prev != nil {
				old = e.valueInterval(prev, depth-1)
			}
		}
		if n.Tok == token.INC {
			return AddInterval(old, ConstInterval(1))
		}
		return SubInterval(old, ConstInterval(1))
	case *ast.AssignStmt:
		if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
			// Compound assignment x op= rhs.
			old := TopInterval()
			if id := identOf(n.Lhs[0]); id != nil {
				if prev := e.f.UseValue[id]; prev != nil {
					old = e.valueInterval(prev, depth-1)
				}
			}
			rhs := e.exprInterval(n.Rhs[0], depth-1)
			switch n.Tok {
			case token.ADD_ASSIGN:
				return AddInterval(old, rhs)
			case token.SUB_ASSIGN:
				return SubInterval(old, rhs)
			case token.MUL_ASSIGN:
				return MulInterval(old, rhs)
			}
			return TopInterval()
		}
	case *ast.RangeStmt:
		// The range key over a slice, array, map, string or integer
		// is always nonnegative.
		if id := identOf(n.Key); id != nil {
			if obj, _ := e.f.Info.ObjectOf(id).(*types.Var); obj == d.Obj {
				return Interval{Lo: 0, HiInf: true}
			}
		}
		return TopInterval()
	case *ast.DeclStmt:
		if d.Rhs == nil {
			return ConstInterval(0) // zero-value declaration
		}
	}
	if d.Rhs == nil {
		return TopInterval()
	}
	if d.TupleIdx != 0 || isTupleExpr(e.f.Info, d.Rhs) {
		return TopInterval()
	}
	return e.exprInterval(d.Rhs, depth)
}

func isTupleExpr(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	_, isTuple := tv.Type.(*types.Tuple)
	return isTuple
}

func isIntegerVar(v *types.Var) bool {
	basic, ok := v.Type().Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

// guardsFor returns the branch conditions established on entry to blk:
// every CondEdge whose True (or False) successor is the edge's sole
// reachable continuation and dominates blk.
func (e *intervalEngine) guardsFor(blk *Block) []guard {
	if blk == nil {
		return nil
	}
	if gs, ok := e.guards[blk]; ok {
		return gs
	}
	g := e.f.G
	var out []guard
	if g.ReachableFromEntry(blk) {
		for _, br := range g.Branches {
			if !g.ReachableFromEntry(br.From) {
				continue
			}
			for _, side := range [2]struct {
				tgt   *Block
				truth bool
			}{{br.True, true}, {br.False, false}} {
				if side.tgt == nil || !g.ReachableFromEntry(side.tgt) {
					continue
				}
				if g.soleReachablePred(side.tgt) != br.From {
					continue
				}
				if !g.dominates(side.tgt, blk) {
					continue
				}
				out = append(out, guard{cond: br.Cond, truth: side.truth})
			}
		}
	}
	e.guards[blk] = out
	return out
}

// refineInterval narrows base by every dominating guard that tests the
// same SSA value as the use.
func (e *intervalEngine) refineInterval(base Interval, v SSAValue, blk *Block, depth int) Interval {
	if depth <= 0 || blk == nil {
		return base
	}
	for _, gd := range e.guardsFor(blk) {
		base = e.applyIntervalGuard(base, gd.cond, gd.truth, v, depth)
	}
	return base
}

// applyIntervalGuard mets one condition's constraint on v into iv.
func (e *intervalEngine) applyIntervalGuard(iv Interval, cond ast.Expr, truth bool, v SSAValue, depth int) Interval {
	cond = ast.Unparen(cond)
	switch c := cond.(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return e.applyIntervalGuard(iv, c.X, !truth, v, depth)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if truth {
				iv = e.applyIntervalGuard(iv, c.X, true, v, depth)
				iv = e.applyIntervalGuard(iv, c.Y, true, v, depth)
			}
			return iv
		case token.LOR:
			if !truth {
				iv = e.applyIntervalGuard(iv, c.X, false, v, depth)
				iv = e.applyIntervalGuard(iv, c.Y, false, v, depth)
			}
			return iv
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			op := c.Op
			if !truth {
				op = negateCmp(op)
			}
			if e.sameValue(c.X, v) {
				return MeetInterval(iv, cmpConstraint(op, e.exprInterval(c.Y, depth-1), iv))
			}
			if e.sameValue(c.Y, v) {
				return MeetInterval(iv, cmpConstraint(flipCmp(op), e.exprInterval(c.X, depth-1), iv))
			}
		}
	}
	return iv
}

// sameValue reports whether expr is an identifier use resolving to the
// SSA value v — the version-exactness test for guard application.
func (e *intervalEngine) sameValue(expr ast.Expr, v SSAValue) bool {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return false
	}
	return e.f.UseValue[id] == v
}

func negateCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GEQ
	case token.LEQ:
		return token.GTR
	case token.GTR:
		return token.LEQ
	case token.GEQ:
		return token.LSS
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	}
	return op
}

func flipCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.LEQ:
		return token.GEQ
	case token.GTR:
		return token.LSS
	case token.GEQ:
		return token.LEQ
	}
	return op
}

// cmpConstraint builds the constraint interval for `v op other` being
// true, given other's interval. cur is only consulted for NEQ boundary
// trimming.
func cmpConstraint(op token.Token, other Interval, cur Interval) Interval {
	if other.Empty {
		return TopInterval()
	}
	switch op {
	case token.LSS:
		if !other.HiInf {
			if hi, ok := satAdd(other.Hi, -1); ok {
				return Interval{LoInf: true, Hi: hi}
			}
		}
	case token.LEQ:
		if !other.HiInf {
			return Interval{LoInf: true, Hi: other.Hi}
		}
	case token.GTR:
		if !other.LoInf {
			if lo, ok := satAdd(other.Lo, 1); ok {
				return Interval{Lo: lo, HiInf: true}
			}
		}
	case token.GEQ:
		if !other.LoInf {
			return Interval{Lo: other.Lo, HiInf: true}
		}
	case token.EQL:
		return other
	case token.NEQ:
		// Only trims when other is a constant at one of cur's bounds.
		if !other.LoInf && !other.HiInf && other.Lo == other.Hi {
			c := other.Lo
			out := cur
			if !cur.LoInf && cur.Lo == c {
				if lo, ok := satAdd(c, 1); ok {
					out.Lo = lo
				}
			}
			if !cur.HiInf && cur.Hi == c {
				if hi, ok := satAdd(c, -1); ok {
					out.Hi = hi
				}
			}
			return out
		}
	}
	return TopInterval()
}

// exprNilness evaluates the nilness of an expression.
func (e *intervalEngine) exprNilness(expr ast.Expr, depth int) Nilness {
	if depth <= 0 {
		return NilMaybe
	}
	expr = ast.Unparen(expr)
	info := e.f.Info
	if tv, ok := info.Types[expr]; ok && tv.IsNil() {
		return NilAlways
	}
	switch v := expr.(type) {
	case *ast.Ident:
		val := e.f.UseValue[v]
		if val == nil {
			return NilMaybe
		}
		base := e.valueNilness(val, depth-1)
		return e.refineNilness(base, val, e.nodeBlock[v], depth-1)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return NilNever
		}
	case *ast.CompositeLit, *ast.FuncLit:
		return NilNever
	case *ast.CallExpr:
		if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok {
			if obj, ok := info.Uses[id].(*types.Builtin); ok {
				switch obj.Name() {
				case "make", "new", "append":
					return NilNever
				}
			}
		}
	}
	return NilMaybe
}

// valueNilness evaluates one SSA value's nilness, unrefined.
func (e *intervalEngine) valueNilness(v SSAValue, depth int) Nilness {
	if depth <= 0 {
		return NilMaybe
	}
	switch val := v.(type) {
	case *ValParam, *ValUnknown:
		return NilMaybe
	case *ValPhi:
		if nv, ok := e.phiNil[val]; ok {
			return nv
		}
		return NilMaybe
	case *ValDef:
		if val.Rhs == nil {
			if _, isDecl := val.Node.(*ast.DeclStmt); isDecl && isNilableVar(val.Obj) {
				return NilAlways // zero-value declaration of a reference type
			}
			return NilMaybe
		}
		if val.TupleIdx != 0 || isTupleExpr(e.f.Info, val.Rhs) {
			return NilMaybe
		}
		return e.exprNilness(val.Rhs, depth)
	}
	return NilMaybe
}

func isNilableVar(v *types.Var) bool {
	switch v.Type().Underlying().(type) {
	case *types.Slice, *types.Map, *types.Chan, *types.Pointer, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// refineNilness narrows base by dominating nil-comparison guards on
// the same SSA value.
func (e *intervalEngine) refineNilness(base Nilness, v SSAValue, blk *Block, depth int) Nilness {
	if depth <= 0 || blk == nil {
		return base
	}
	for _, gd := range e.guardsFor(blk) {
		base = e.applyNilGuard(base, gd.cond, gd.truth, v)
	}
	return base
}

func (e *intervalEngine) applyNilGuard(cur Nilness, cond ast.Expr, truth bool, v SSAValue) Nilness {
	cond = ast.Unparen(cond)
	switch c := cond.(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return e.applyNilGuard(cur, c.X, !truth, v)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if truth {
				cur = e.applyNilGuard(cur, c.X, true, v)
				cur = e.applyNilGuard(cur, c.Y, true, v)
			}
			return cur
		case token.LOR:
			if !truth {
				cur = e.applyNilGuard(cur, c.X, false, v)
				cur = e.applyNilGuard(cur, c.Y, false, v)
			}
			return cur
		case token.EQL, token.NEQ:
			var side ast.Expr
			if isNilExpr(e.f.Info, c.X) && e.sameValue(c.Y, v) {
				side = c.Y
			} else if isNilExpr(e.f.Info, c.Y) && e.sameValue(c.X, v) {
				side = c.X
			}
			if side == nil {
				return cur
			}
			isEq := (c.Op == token.EQL) == truth
			if isEq {
				return NilAlways
			}
			return NilNever
		}
	}
	return cur
}

func isNilExpr(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(expr)]
	return ok && tv.IsNil()
}

// A funcUnit is one function declaration or literal. Its SSA form
// and fact engine are built on first use (engine), so a function no
// analyzer queries never pays for them.
type funcUnit struct {
	Decl  *ast.FuncDecl // nil for literals
	Lit   *ast.FuncLit  // nil for declarations
	Body  *ast.BlockStmt
	Type  *ast.FuncType
	facts *runFacts
	eng   *intervalEngine
}

// engine returns the unit's fact engine over its SSA form, built on
// the fact base's shared CFG.
func (u *funcUnit) engine() *intervalEngine {
	if u.eng == nil {
		u.eng = newIntervalEngine(BuildSSA(u.facts.cfg(u.Body), u.facts.pkg.Info, unitRecv(u), u.Type, u.Body))
	}
	return u.eng
}

func unitRecv(unit *funcUnit) *ast.FieldList {
	if unit.Decl != nil {
		return unit.Decl.Recv
	}
	return nil
}

// buildFuncUnits lists a unit for every function declaration and every
// function literal (at any nesting depth) in the package's files.
func buildFuncUnits(f *runFacts) []*funcUnit {
	var units []*funcUnit
	for _, file := range f.pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			units = append(units, &funcUnit{Decl: fd, Body: fd.Body, Type: fd.Type, facts: f})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					units = append(units, &funcUnit{Lit: lit, Body: lit.Body, Type: lit.Type, facts: f})
				}
				return true
			})
		}
	}
	return units
}
