package lint

// The lock-set layer shared by lockguard, lockorder, unlockpath and
// mutexchan. It turns the repository's prose concurrency contracts
// ("the engine mutex guards only cache bookkeeping") into
// machine-checked facts:
//
//   - Struct fields declare their guard with a trailing directive,
//     //scatterlint:guardedby mu          — sibling mutex field
//     //scatterlint:guardedby (Type).mu   — a mutex on another type
//                                           in the same package
//     //scatterlint:guardedby atomic      — accessed via sync/atomic
//     //scatterlint:guardedby immutable   — immutable after publish:
//                                           reads are free, writes
//                                           must happen before the
//                                           value escapes its
//                                           constructor or under some
//                                           held lock (the publish
//                                           side of a happens-before
//                                           edge such as writing
//                                           result fields before
//                                           close(done)).
//
//   - A forward must-hold dataflow over each function's CFG tracks
//     which mutexes are held at every node (Lock/RLock acquire,
//     Unlock/RUnlock release, deferred unlocks keep the lock held to
//     the end of the function and satisfy release-on-every-path).
//
//   - Guard identity is the *lock class* — the declaring
//     "pkg.Type.field" of the mutex — not the instance expression, so
//     `e.mu.Lock(); pl.refs++` proves a field guarded by (Engine).mu
//     no matter which variable holds the engine. Class matching is
//     instance-insensitive: holding *any* lock of the class
//     satisfies the guard, which weakens toward silence (it can miss
//     a bug where two instances of the class are confused, never
//     invent one).
//
//   - Guard facts flow through a per-package requirement fixpoint in
//     the style of summary.go: a helper that touches a guarded field
//     without holding the lock *requires* the class from its callers;
//     a call site discharges the requirement if the class is held
//     there (or the receiver is provably a fresh, unescaped
//     allocation — the constructor exemption), otherwise inherits it.
//     A requirement that survives on an exported function or method
//     is reported at the guilty access: external callers cannot hold
//     a package-private lock, so no caller can discharge it.
//
// Known holes, all erring toward silence: function literals passed to
// other packages (callbacks) are analyzed but their surviving
// requirements are not reported; calls inside go/defer statements do
// not discharge or inherit requirements (the held set at run time is
// unknown); class matching cannot distinguish two live instances of
// one type.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// lockClass identifies a mutex by declaration site, "pkgpath.Type.field".
// The empty class is a local mutex variable: tracked for unlockpath
// and double-lock, invisible to lockguard and lockorder.
type lockClass string

// display shortens "repro/internal/core.Engine.mu" to "(core.Engine).mu".
func (c lockClass) display() string {
	s := string(c)
	i := strings.LastIndex(s, ".")
	if i < 0 {
		return s
	}
	j := strings.LastIndex(s[:i], ".")
	if j < 0 {
		return s
	}
	k := strings.LastIndex(s[:j], "/")
	return "(" + s[k+1:i] + ")." + s[i+1:]
}

type guardKind int

const (
	guardMutex guardKind = iota
	guardAtomic
	guardImmutable
)

// guardSpec is one parsed //scatterlint:guardedby annotation.
type guardSpec struct {
	kind  guardKind
	class lockClass // for guardMutex
	field string    // annotated field name, for messages
}

// lockOp classifies one sync mutex call.
type lockOp int

const (
	opNone lockOp = iota
	opLock
	opRLock
	opUnlock
	opRUnlock
)

// lockState is the must-hold state of one mutex key.
type lockState struct {
	excl     bool // held exclusively (Lock); false means read-held (RLock)
	deferred bool // a deferred unlock already covers this key
	class    lockClass
	pos      token.Pos // acquisition witness
}

// lockSet maps a lock expression (types.ExprString of the receiver,
// "e.mu") to its held state. The dataflow meet is key intersection:
// a lock held on only one incoming path is not held.
type lockSet map[string]lockState

func copyLockSet(s lockSet) lockSet {
	out := make(lockSet, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// meetLockSets intersects in with out, reporting whether in changed.
// Exclusive meets read-held as read-held; deferred bits accumulate.
func meetLockSets(in, out lockSet) (lockSet, bool) {
	changed := false
	for k, iv := range in {
		ov, ok := out[k]
		if !ok {
			delete(in, k)
			changed = true
			continue
		}
		if iv.excl && !ov.excl {
			iv.excl = false
			in[k] = iv
			changed = true
		}
		if ov.deferred && !iv.deferred {
			iv.deferred = true
			in[k] = iv
			changed = true
		}
	}
	return in, changed
}

// holdsClass reports whether some held lock has the class (exclusively,
// if the access needs a writer lock).
func holdsClass(s lockSet, c lockClass, needExcl bool) bool {
	for _, v := range s {
		if v.class == c && (v.excl || !needExcl) {
			return true
		}
	}
	return false
}

// heldClassList returns the distinct held classes, sorted.
func heldClassList(s lockSet) []lockClass {
	seen := make(map[lockClass]bool)
	for _, v := range s {
		if v.class != "" {
			seen[v.class] = true
		}
	}
	out := make([]lockClass, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// lockReq is one class a function requires its callers to hold.
type lockReq struct {
	pos      token.Pos // the guilty access (reports and suppressions anchor here)
	needExcl bool
	desc     string // "write to refs (guarded by (core.Engine).mu)"
	chain    string // call-path witness, "SolveDetailed → resolve → pin"
}

// callRec is one call site with the must-hold set at that point.
type callRec struct {
	call *ast.CallExpr
	held lockSet
}

// acqRec is one direct lock acquisition with the set already held.
type acqRec struct {
	class lockClass
	pos   token.Pos
	held  lockSet
}

// lockFacts is the lock-set summary of one function or literal.
type lockFacts struct {
	name string
	fn   *types.Func // nil for literals
	body *ast.BlockStmt
	g    *CFG
	in   []lockSet // per-block fixpoint in-state, indexed by Block.Index

	calls    []callRec
	acquired []acqRec

	requires map[lockClass]*lockReq
	acquires map[lockClass]string // class → call-path witness
}

// lockFinding is one diagnostic, routed to its analyzer at report time.
type lockFinding struct {
	pos token.Pos
	msg string
}

// lockEdge is one lock-order edge: to is acquired while from is held.
type lockEdge struct {
	from, to lockClass
	pos      token.Pos
	fn       string // function holding from at the acquisition
	via      string // callee chain for indirect acquisitions, "" for direct
}

// lockSummary is the lock-set analysis of one package.
type lockSummary struct {
	pkg    *Package
	info   *types.Info
	sum    *pkgSummary
	guards map[*types.Var]*guardSpec
	byFunc map[*types.Func]*lockFacts
	byLit  map[*ast.FuncLit]*lockFacts
	all    []*lockFacts
	// selectComm maps every select comm statement to the select it
	// reports as (mutexchan): the first comm of a select without
	// default maps to its select, every other comm to nil.
	selectComm map[ast.Node]*ast.SelectStmt

	guardFindings  []lockFinding
	orderFindings  []lockFinding
	unlockFindings []lockFinding
	chanFindings   []lockFinding
}

// newLockSummary runs the lock-set analysis once per run, on the fact
// base's summary: lockguard, lockorder, unlockpath and mutexchan share
// it and report disjoint finding sets.
func newLockSummary(f *runFacts) *lockSummary {
	ls := &lockSummary{
		pkg:        f.pkg,
		info:       f.pkg.Info,
		sum:        f.summary(),
		guards:     make(map[*types.Var]*guardSpec),
		byFunc:     make(map[*types.Func]*lockFacts),
		byLit:      make(map[*ast.FuncLit]*lockFacts),
		selectComm: make(map[ast.Node]*ast.SelectStmt),
	}
	ls.parseGuards()
	ls.buildFacts()
	for _, ff := range ls.all {
		ls.flowFunc(ff, f.cfg(ff.body))
		ls.scanFunc(ff)
	}
	ls.solveRequirements()
	ls.reportBoundaries()
	ls.buildOrderGraph()

	sortFindings(ls.guardFindings)
	sortFindings(ls.orderFindings)
	sortFindings(ls.unlockFindings)
	sortFindings(ls.chanFindings)
	return ls
}

func sortFindings(fs []lockFinding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].pos != fs[j].pos {
			return fs[i].pos < fs[j].pos
		}
		return fs[i].msg < fs[j].msg
	})
}

// reportLockFindings emits fs through pass, skipping test files: the
// analyzers prove production invariants, and tests routinely poke
// guarded fields of single-goroutine fixtures.
func reportLockFindings(pass *Pass, fs []lockFinding) {
	for _, f := range fs {
		if strings.HasSuffix(pass.Fset.Position(f.pos).Filename, "_test.go") {
			continue
		}
		pass.Reportf(f.pos, "%s", f.msg)
	}
}

// ---- guardedby annotation parsing ----

var classGuardRE = regexp.MustCompile(`^\(([A-Za-z_]\w*)\)\.([A-Za-z_]\w*)$`)

// parseGuards scans every named struct type for field annotations.
func (ls *lockSummary) parseGuards() {
	for _, file := range ls.pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				spec, pos, ok := guardAnnotation(fld)
				if ok {
					ls.applyGuard(ts, st, fld, spec, pos)
				}
			}
			return false
		})
	}
}

// guardAnnotation extracts the spec token of a field's guardedby
// directive from its doc or trailing comment. Words after the spec
// are free-form commentary.
func guardAnnotation(fld *ast.Field) (spec string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "scatterlint:guardedby") {
				continue
			}
			rest := strings.TrimPrefix(text, "scatterlint:guardedby")
			if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
				continue // e.g. scatterlint:guardedbyx — some other token
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return "", c.Pos(), true
			}
			return fields[0], c.Pos(), true
		}
	}
	return "", token.NoPos, false
}

// applyGuard resolves one annotation to a guardSpec and registers it
// for every field name it covers. Malformed annotations are lockguard
// findings: a typo'd guard silently checks nothing.
func (ls *lockSummary) applyGuard(ts *ast.TypeSpec, st *ast.StructType, fld *ast.Field, spec string, pos token.Pos) {
	malformed := func(format string, args ...any) {
		ls.guardFindings = append(ls.guardFindings, lockFinding{
			pos: pos,
			msg: "malformed //scatterlint:guardedby: " + fmt.Sprintf(format, args...),
		})
	}
	if len(fld.Names) == 0 {
		malformed("annotation on an embedded field is not supported")
		return
	}
	gs := &guardSpec{field: fld.Names[0].Name}
	switch {
	case spec == "":
		malformed("missing guard: want a sibling mutex field, (Type).field, atomic or immutable")
		return
	case spec == "atomic":
		gs.kind = guardAtomic
	case spec == "immutable":
		gs.kind = guardImmutable
	case classGuardRE.MatchString(spec):
		m := classGuardRE.FindStringSubmatch(spec)
		cls, err := ls.resolveClassGuard(m[1], m[2])
		if err != "" {
			malformed("%s", err)
			return
		}
		gs.kind = guardMutex
		gs.class = cls
	default:
		cls, err := ls.resolveSiblingGuard(ts, st, spec)
		if err != "" {
			malformed("%s", err)
			return
		}
		gs.kind = guardMutex
		gs.class = cls
	}
	for _, name := range fld.Names {
		if v, ok := ls.info.Defs[name].(*types.Var); ok {
			ls.guards[v] = gs
		}
	}
}

// resolveSiblingGuard resolves a bare guard name to a mutex field of
// the same struct.
func (ls *lockSummary) resolveSiblingGuard(ts *ast.TypeSpec, st *ast.StructType, name string) (lockClass, string) {
	for _, fld := range st.Fields.List {
		for _, n := range fld.Names {
			if n.Name != name {
				continue
			}
			v, ok := ls.info.Defs[n].(*types.Var)
			if !ok || !isMutexType(v.Type()) {
				return "", fmt.Sprintf("%s is not a sync.Mutex or sync.RWMutex field", name)
			}
			return lockClass(ls.pkg.Pkg.Path() + "." + ts.Name.Name + "." + name), ""
		}
	}
	return "", fmt.Sprintf("no sibling field named %s; want a mutex field, (Type).field, atomic or immutable", name)
}

// resolveClassGuard resolves a (Type).field guard against the
// package scope.
func (ls *lockSummary) resolveClassGuard(typeName, fieldName string) (lockClass, string) {
	tn, ok := ls.pkg.Pkg.Scope().Lookup(typeName).(*types.TypeName)
	if !ok {
		return "", fmt.Sprintf("no type %s in package %s", typeName, ls.pkg.Pkg.Name())
	}
	su, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return "", fmt.Sprintf("%s is not a struct type", typeName)
	}
	for i := 0; i < su.NumFields(); i++ {
		f := su.Field(i)
		if f.Name() != fieldName {
			continue
		}
		if !isMutexType(f.Type()) {
			return "", fmt.Sprintf("(%s).%s is not a sync.Mutex or sync.RWMutex field", typeName, fieldName)
		}
		return lockClass(ls.pkg.Pkg.Path() + "." + typeName + "." + fieldName), ""
	}
	return "", fmt.Sprintf("type %s has no field %s", typeName, fieldName)
}

func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// ---- function facts ----

// buildFacts registers a lockFacts for every function and literal
// outside test files, in file order, and indexes their selects'
// comm statements for scanChanOps.
func (ls *lockSummary) buildFacts() {
	for _, file := range ls.pkg.Files {
		if fname := ls.pkg.Fset.Position(file.Pos()).Filename; strings.HasSuffix(fname, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncDecl:
				if v.Body == nil {
					return true
				}
				fn, _ := ls.info.Defs[v.Name].(*types.Func)
				if fn == nil {
					return true
				}
				ff := &lockFacts{
					name:     v.Name.Name,
					fn:       fn,
					body:     v.Body,
					requires: make(map[lockClass]*lockReq),
					acquires: make(map[lockClass]string),
				}
				ls.byFunc[fn] = ff
				ls.all = append(ls.all, ff)
			case *ast.FuncLit:
				name := "func literal"
				if sf := ls.sum.byLit[v]; sf != nil {
					name = sf.name
				}
				ff := &lockFacts{
					name:     name,
					body:     v.Body,
					requires: make(map[lockClass]*lockReq),
					acquires: make(map[lockClass]string),
				}
				ls.byLit[v] = ff
				ls.all = append(ls.all, ff)
			case *ast.SelectStmt:
				report := v
				for _, c := range v.Body.List {
					if c.(*ast.CommClause).Comm == nil {
						report = nil // a default case: the select never blocks
					}
				}
				for _, c := range v.Body.List {
					if comm := c.(*ast.CommClause).Comm; comm != nil {
						ls.selectComm[comm] = report
						report = nil
					}
				}
			}
			return true
		})
	}
}

// calleeLockFacts resolves a call to its same-package lock facts,
// mirroring pkgSummary.calleeFacts.
func (ls *lockSummary) calleeLockFacts(call *ast.CallExpr) *lockFacts {
	if fn := calleeFunc(ls.info, call); fn != nil {
		return ls.byFunc[fn]
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if v, ok := ls.info.ObjectOf(fun).(*types.Var); ok {
			if fl := ls.sum.closures[v]; fl != nil {
				return ls.byLit[fl]
			}
		}
	case *ast.FuncLit:
		return ls.byLit[fun]
	}
	return nil
}

// ---- the must-hold dataflow ----

// classifyLockCall classifies a sync.Mutex/RWMutex method call.
// TryLock/TryRLock are deliberately opNone: their acquisition is
// conditional and tracking it as held would claim too much.
func classifyLockCall(info *types.Info, call *ast.CallExpr) (key string, base ast.Expr, op lockOp) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil, opNone
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", nil, opNone
	}
	switch fn.Name() {
	case "Lock":
		op = opLock
	case "RLock":
		op = opRLock
	case "Unlock":
		op = opUnlock
	case "RUnlock":
		op = opRUnlock
	default:
		return "", nil, opNone
	}
	return types.ExprString(sel.X), sel.X, op
}

// lockClassOf resolves a mutex receiver expression to its lock class,
// or "" for locals and unresolvable shapes.
func (ls *lockSummary) lockClassOf(e ast.Expr) lockClass {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj, ok := ls.info.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() {
		return ""
	}
	selc := ls.info.Selections[sel]
	if selc == nil {
		return ""
	}
	t := selc.Recv()
	for {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return lockClass(named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name())
}

// lockOpsIn calls f for every mutex call directly executed by node:
// lock/unlock calls in expression statements and deferred unlocks
// (direct or inside a deferred literal). Nested literals and range
// bodies run elsewhere and are skipped.
func (ls *lockSummary) lockOpsIn(node ast.Node, f func(key string, base ast.Expr, op lockOp, deferred bool, pos token.Pos)) {
	switch v := node.(type) {
	case *ast.DeferStmt:
		if key, base, op := classifyLockCall(ls.info, v.Call); op == opUnlock || op == opRUnlock {
			f(key, base, op, true, v.Call.Pos())
			return
		}
		if fl, ok := ast.Unparen(v.Call.Fun).(*ast.FuncLit); ok {
			walkOwnBody(fl.Body, func(n ast.Node) {
				if call, ok := n.(*ast.CallExpr); ok {
					if key, base, op := classifyLockCall(ls.info, call); op == opUnlock || op == opRUnlock {
						f(key, base, op, true, call.Pos())
					}
				}
			})
		}
	case *ast.GoStmt:
		// Runs on another goroutine: no effect on this held set.
	case *ast.ExprStmt:
		if call, ok := v.X.(*ast.CallExpr); ok {
			if key, base, op := classifyLockCall(ls.info, call); op != opNone {
				f(key, base, op, false, call.Pos())
			}
		}
	}
}

// transfer applies node's lock operations to set.
func (ls *lockSummary) transfer(node ast.Node, set lockSet) {
	ls.lockOpsIn(node, func(key string, base ast.Expr, op lockOp, deferred bool, pos token.Pos) {
		switch {
		case deferred:
			if st, ok := set[key]; ok {
				st.deferred = true
				set[key] = st
			}
		case op == opLock:
			set[key] = lockState{excl: true, class: ls.lockClassOf(base), pos: pos}
		case op == opRLock:
			if _, ok := set[key]; !ok {
				set[key] = lockState{class: ls.lockClassOf(base), pos: pos}
			}
		case op == opUnlock || op == opRUnlock:
			delete(set, key)
		}
	})
}

// flowFunc solves the forward must-hold dataflow over ff's CFG.
func (ls *lockSummary) flowFunc(ff *lockFacts, g *CFG) {
	ff.g = g
	ff.in = make([]lockSet, len(g.Blocks))
	ff.in[g.Entry.Index] = lockSet{}
	work := []*Block{g.Entry}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		out := copyLockSet(ff.in[b.Index])
		for _, n := range b.Nodes {
			ls.transfer(n, out)
		}
		for _, s := range b.Succs {
			if s == g.Exit {
				continue
			}
			if ff.in[s.Index] == nil {
				ff.in[s.Index] = copyLockSet(out)
				work = append(work, s)
				continue
			}
			if merged, changed := meetLockSets(ff.in[s.Index], out); changed {
				ff.in[s.Index] = merged
				work = append(work, s)
			}
		}
	}
}

// ---- the per-function scan ----

// scanFunc walks ff's blocks with the solved states, collecting
// guarded-access findings and requirement seeds (lockguard), call
// sites and direct acquisitions (lockorder), and release-discipline
// findings (unlockpath).
func (ls *lockSummary) scanFunc(ff *lockFacts) {
	fset := ls.pkg.Fset
	for _, b := range ff.g.Blocks {
		if b == ff.g.Exit || ff.in[b.Index] == nil {
			continue
		}
		state := copyLockSet(ff.in[b.Index])
		for _, node := range b.Nodes {
			// Release-discipline checks against the pre-state.
			ls.lockOpsIn(node, func(key string, base ast.Expr, op lockOp, deferred bool, pos token.Pos) {
				st, held := state[key]
				switch {
				case deferred:
					if held && st.excl && op == opRUnlock {
						ff.unlock(ls, pos, "deferred %s.RUnlock() releases an exclusive lock acquired at line %d; use Unlock",
							key, fset.Position(st.pos).Line)
					}
					if held && !st.excl && op == opUnlock {
						ff.unlock(ls, pos, "deferred %s.Unlock() releases a read lock acquired at line %d; use RUnlock",
							key, fset.Position(st.pos).Line)
					}
				case op == opLock:
					if held {
						ff.unlock(ls, pos, "%s.Lock() on a path where %s is already held (acquired at line %d): self-deadlock",
							key, key, fset.Position(st.pos).Line)
					}
					ls.recordAcquire(ff, base, pos, state)
				case op == opRLock:
					if held && st.excl {
						ff.unlock(ls, pos, "%s.RLock() while %s is held exclusively (acquired at line %d): lock upgrade deadlocks",
							key, key, fset.Position(st.pos).Line)
					}
					ls.recordAcquire(ff, base, pos, state)
				case op == opUnlock:
					if held && !st.excl {
						ff.unlock(ls, pos, "%s.Unlock() releases a read lock acquired at line %d; use RUnlock",
							key, fset.Position(st.pos).Line)
					}
				case op == opRUnlock:
					if held && st.excl {
						ff.unlock(ls, pos, "%s.RUnlock() releases an exclusive lock acquired at line %d; use Unlock",
							key, fset.Position(st.pos).Line)
					}
				}
			})
			// Every lock held at a return must carry a deferred unlock.
			if ret, ok := node.(*ast.ReturnStmt); ok {
				ls.checkHeldAtExit(ff, state, ret.Pos(), "return")
			}
			// Guarded accesses against the pre-state.
			ls.scanNodeAccesses(node, func(sel *ast.SelectorExpr, mode accMode) {
				ls.checkAccess(ff, sel, mode, state)
			})
			if len(state) > 0 {
				ls.scanChanOps(node, state)
			}
			// Call sites for the requirement/acquire fixpoint. Calls
			// inside go/defer run under an unknown held set: skipped.
			switch node.(type) {
			case *ast.DeferStmt, *ast.GoStmt:
			default:
				visitOwnNode(node, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if _, _, op := classifyLockCall(ls.info, call); op == opNone {
							ff.calls = append(ff.calls, callRec{call: call, held: copyLockSet(state)})
						}
					}
					return true
				})
			}
			ls.transfer(node, state)
		}
		// Falling off the end of the function is an implicit return.
		if exits, last := fallsToExit(ff.g, b); exits {
			if !endsControl(last) && !ls.endsDying(last) {
				pos := ff.body.Rbrace
				if last != nil {
					pos = last.End()
				}
				ls.checkHeldAtExit(ff, state, pos, "function end")
			}
		}
	}
}

// scanChanOps records mutexchan findings for the blocking channel
// operations node performs while the locks in state are held: a send
// or receive, a range over a channel, or a select without default
// (once, at the select keyword). A comm statement blocks only as part
// of its select, so a select with a default case is silent.
func (ls *lockSummary) scanChanOps(node ast.Node, state lockSet) {
	keys := make([]string, 0, len(state))
	for k := range state {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	held := strings.Join(keys, ", ")
	report := func(pos token.Pos, format string) {
		ls.chanFindings = append(ls.chanFindings, lockFinding{pos: pos, msg: fmt.Sprintf(format, held)})
	}
	if sel, ok := ls.selectComm[node]; ok {
		if sel != nil {
			report(sel.Pos(), "select without default while %s is held: every case can block with the lock taken")
		}
		return
	}
	if rs, ok := node.(*ast.RangeStmt); ok {
		if t := ls.info.TypeOf(rs.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				report(rs.Pos(), "ranging over a channel while %s is held: a quiet channel parks this goroutine with the lock taken")
			}
		}
	}
	visitOwnNode(node, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SendStmt:
			report(v.Arrow, "channel send while %s is held: a full or unbuffered channel parks this goroutine with the lock taken")
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				report(v.Pos(), "channel receive while %s is held: an empty channel parks this goroutine with the lock taken")
			}
		}
		return true
	})
}

func (ff *lockFacts) unlock(ls *lockSummary, pos token.Pos, format string, args ...any) {
	ls.unlockFindings = append(ls.unlockFindings, lockFinding{pos: pos, msg: fmt.Sprintf(format, args...)})
}

// fallsToExit reports whether b has an edge to the CFG exit, with its
// final node (nil for empty blocks).
func fallsToExit(g *CFG, b *Block) (bool, ast.Node) {
	for _, s := range b.Succs {
		if s == g.Exit {
			var last ast.Node
			if len(b.Nodes) > 0 {
				last = b.Nodes[len(b.Nodes)-1]
			}
			return true, last
		}
	}
	return false, nil
}

// endsControl reports whether the node already accounts for its exit
// edge: returns are checked at the statement, branch statements
// (goto approximation) transfer control without returning.
func endsControl(n ast.Node) bool {
	switch n.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	}
	return false
}

// endsDying reports whether n is a call that never returns normally
// (panic, os.Exit, log.Fatal*): locks held there are moot — panics
// run the deferred unlocks, exits tear the process down.
func (ls *lockSummary) endsDying(n ast.Node) bool {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := ls.info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	}
	if fn := calleeFunc(ls.info, call); fn != nil && fn.Pkg() != nil {
		full := fn.Pkg().Path() + "." + fn.Name()
		switch full {
		case "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	return false
}

// checkHeldAtExit reports every non-deferred lock still held when the
// function exits at pos.
func (ls *lockSummary) checkHeldAtExit(ff *lockFacts, state lockSet, pos token.Pos, where string) {
	keys := make([]string, 0, len(state))
	for k, st := range state {
		if !st.deferred {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		ff.unlock(ls, pos, "%s with %s held (acquired at line %d): missing Unlock on this path",
			where, k, ls.pkg.Fset.Position(state[k].pos).Line)
	}
}

// recordAcquire records a direct acquisition for the lock-order graph.
func (ls *lockSummary) recordAcquire(ff *lockFacts, base ast.Expr, pos token.Pos, held lockSet) {
	class := ls.lockClassOf(base)
	if class == "" {
		return
	}
	ff.acquired = append(ff.acquired, acqRec{class: class, pos: pos, held: copyLockSet(held)})
	if _, ok := ff.acquires[class]; !ok {
		ff.acquires[class] = ff.name
	}
}

// ---- guarded-access checking ----

// checkAccess enforces one guarded field access against the held set.
func (ls *lockSummary) checkAccess(ff *lockFacts, sel *ast.SelectorExpr, mode accMode, state lockSet) {
	obj, ok := ls.info.Uses[sel.Sel].(*types.Var)
	if !ok {
		return
	}
	spec := ls.guards[obj]
	if spec == nil {
		return
	}
	switch spec.kind {
	case guardAtomic:
		if mode != accAtomic {
			ls.guardFindings = append(ls.guardFindings, lockFinding{
				pos: sel.Pos(),
				msg: fmt.Sprintf("%s of %s (declared guardedby atomic) must go through sync/atomic",
					accVerb(mode), spec.field),
			})
		}
	case guardImmutable:
		if mode != accWrite {
			return
		}
		// Writes are legal before the value escapes its constructor,
		// or under any held lock (the publish side of a
		// happens-before edge: write results, then close the channel
		// or release the mutex the readers synchronize on).
		if len(state) > 0 || ls.exemptPath(sel.X, ff) {
			return
		}
		ls.guardFindings = append(ls.guardFindings, lockFinding{
			pos: sel.Pos(),
			msg: fmt.Sprintf("write to %s (declared guardedby immutable) outside construction or a locked publish",
				spec.field),
		})
	case guardMutex:
		needExcl := mode == accWrite
		if holdsClass(state, spec.class, needExcl) {
			return
		}
		if ls.exemptPath(sel.X, ff) {
			return
		}
		desc := fmt.Sprintf("%s of %s (guarded by %s)", accVerb(mode), spec.field, spec.class.display())
		root := rootIdent(sel.X)
		var rootObj *types.Var
		if root != nil {
			rootObj, _ = ls.info.ObjectOf(root).(*types.Var)
		}
		if rootObj == nil {
			return // unrooted base (call result): silent
		}
		if ls.localVar(rootObj, ff) {
			// A local, non-fresh carrier: no caller can make this
			// access safe, report here and now.
			ls.guardFindings = append(ls.guardFindings, lockFinding{
				pos: sel.Pos(),
				msg: desc + " without " + string(spec.class.display()) + " held",
			})
			return
		}
		// Receiver, parameter or free variable: the caller may hold
		// the lock — record a requirement and let the fixpoint decide.
		ff.addReq(spec.class, sel.Pos(), needExcl, desc, ff.name)
	}
}

type accMode int

const (
	accRead accMode = iota
	accWrite
	accAtomic
)

func accVerb(m accMode) string {
	switch m {
	case accWrite:
		return "write"
	case accAtomic:
		return "atomic access"
	}
	return "read"
}

// addReq merges one requirement, keeping the first witness; reports
// whether anything changed (for the fixpoint).
func (ff *lockFacts) addReq(class lockClass, pos token.Pos, needExcl bool, desc, chain string) bool {
	r := ff.requires[class]
	if r == nil {
		ff.requires[class] = &lockReq{pos: pos, needExcl: needExcl, desc: desc, chain: chain}
		return true
	}
	if needExcl && !r.needExcl {
		r.needExcl = true
		return true
	}
	return false
}

// localVar reports whether obj is declared inside ff's body — a local
// variable rather than a receiver, parameter, free variable or
// package-level variable.
func (ls *lockSummary) localVar(obj *types.Var, ff *lockFacts) bool {
	return obj.Pos() >= ff.body.Pos() && obj.Pos() < ff.body.End()
}

// exemptPath reports whether the base expression of a guarded access
// provably refers to memory no other goroutine can reach yet:
//
//   - a pure value path (no pointer dereference, no indexing) rooted
//     at a function-local struct value, or
//   - a path whose local root's single assignment is a fresh
//     allocation (&T{...}, T{...}, new(T)) and whose address is never
//     taken — the constructor exemption.
func (ls *lockSummary) exemptPath(e ast.Expr, ff *lockFacts) bool {
	derefed := false
	for {
		e = ast.Unparen(e)
		switch v := e.(type) {
		case *ast.Ident:
			obj, ok := ls.info.ObjectOf(v).(*types.Var)
			if !ok || !ls.localVar(obj, ff) {
				return false
			}
			if _, isPtr := obj.Type().Underlying().(*types.Pointer); isPtr || derefed {
				return ls.freshAlloc(v, obj, ff)
			}
			return true
		case *ast.SelectorExpr:
			if t := ls.info.TypeOf(v.X); t != nil {
				if _, ok := t.Underlying().(*types.Pointer); ok {
					derefed = true
				}
			}
			e = v.X
		case *ast.StarExpr:
			derefed = true
			e = v.X
		case *ast.IndexExpr:
			derefed = true // slice/map backing is shareable
			e = v.X
		default:
			return false
		}
	}
}

// freshAlloc reports whether obj's single definition in ff is a fresh
// allocation and its address is never taken. Flow-insensitive on
// purpose: a variable that is ever bound to shared state (st, ok :=
// w.collectives[seq]) has a non-fresh definition and fails here even
// if a fresh one follows on some branch.
func (ls *lockSummary) freshAlloc(id *ast.Ident, obj *types.Var, ff *lockFacts) bool {
	defs := 0
	fresh := true
	walkOwnBody(ff.body, func(n ast.Node) {
		switch v := n.(type) {
		case *ast.AssignStmt:
			forEachDef(v.Lhs, v.Rhs, func(lhs *ast.Ident, rhs ast.Expr, tupleIdx int) {
				if ls.info.ObjectOf(lhs) != obj {
					return
				}
				defs++
				if tupleIdx != 0 || len(v.Lhs) != len(v.Rhs) || !isFreshAllocExpr(rhs) {
					fresh = false
				}
			})
		case *ast.ValueSpec:
			for i, name := range v.Names {
				if ls.info.ObjectOf(name) != obj {
					continue
				}
				defs++
				if len(v.Values) != len(v.Names) || !isFreshAllocExpr(v.Values[i]) {
					fresh = false
				}
			}
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if base, ok := ast.Unparen(v.X).(*ast.Ident); ok && ls.info.ObjectOf(base) == obj {
					fresh = false // address taken: may escape
				}
			}
		case *ast.RangeStmt:
			for _, lhs := range []ast.Expr{v.Key, v.Value} {
				if lid, ok := lhs.(*ast.Ident); ok && ls.info.ObjectOf(lid) == obj {
					defs++
					fresh = false
				}
			}
		}
	})
	return defs == 1 && fresh
}

func isFreshAllocExpr(e ast.Expr) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if v.Op != token.AND {
			return false
		}
		_, ok := ast.Unparen(v.X).(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && id.Name == "new" {
			return len(v.Args) == 1
		}
	}
	return false
}

// ---- node visitors ----

// visitOwnNode inspects one CFG node, pruning nested function literal
// bodies and (for a RangeStmt header node) the loop body, whose
// statements live in other blocks.
func visitOwnNode(node ast.Node, f func(ast.Node) bool) {
	var rangeBody *ast.BlockStmt
	if rs, ok := node.(*ast.RangeStmt); ok {
		rangeBody = rs.Body
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if rangeBody != nil && n == ast.Node(rangeBody) {
			return false
		}
		return f(n)
	})
}

// scanNodeAccesses finds every field access in one CFG node and
// classifies it read / write / atomic. Only selector shapes can reach
// guarded fields, so hit fires on SelectorExprs.
func (ls *lockSummary) scanNodeAccesses(node ast.Node, hit func(sel *ast.SelectorExpr, mode accMode)) {
	switch v := node.(type) {
	case *ast.AssignStmt:
		for _, lhs := range v.Lhs {
			ls.scanExpr(lhs, accWrite, hit)
		}
		for _, rhs := range v.Rhs {
			ls.scanExpr(rhs, accRead, hit)
		}
	case *ast.IncDecStmt:
		ls.scanExpr(v.X, accWrite, hit)
	case *ast.SendStmt:
		ls.scanExpr(v.Chan, accRead, hit)
		ls.scanExpr(v.Value, accRead, hit)
	case *ast.ReturnStmt:
		for _, r := range v.Results {
			ls.scanExpr(r, accRead, hit)
		}
	case *ast.ExprStmt:
		ls.scanExpr(v.X, accRead, hit)
	case *ast.DeferStmt:
		ls.scanExpr(v.Call, accRead, hit)
	case *ast.GoStmt:
		ls.scanExpr(v.Call, accRead, hit)
	case *ast.DeclStmt:
		gd, ok := v.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for _, val := range vs.Values {
					ls.scanExpr(val, accRead, hit)
				}
			}
		}
	case *ast.RangeStmt:
		ls.scanExpr(v.X, accRead, hit)
		if v.Key != nil {
			ls.scanExpr(v.Key, accWrite, hit)
		}
		if v.Value != nil {
			ls.scanExpr(v.Value, accWrite, hit)
		}
	case *ast.BranchStmt, *ast.EmptyStmt:
	case ast.Expr:
		ls.scanExpr(v, accRead, hit)
	}
}

// scanExpr classifies field accesses in one expression. mode is what
// happens to the value the expression denotes.
func (ls *lockSummary) scanExpr(e ast.Expr, mode accMode, hit func(sel *ast.SelectorExpr, mode accMode)) {
	if e == nil {
		return
	}
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
	case *ast.BasicLit, *ast.FuncLit:
	case *ast.SelectorExpr:
		hit(v, mode)
		ls.scanExpr(v.X, accRead, hit)
	case *ast.StarExpr:
		// The write (if any) lands through the pointer; the field
		// holding the pointer is only read.
		ls.scanExpr(v.X, accRead, hit)
	case *ast.UnaryExpr:
		if v.Op == token.AND && mode != accAtomic {
			// Taking the address lets the holder write.
			ls.scanExpr(v.X, accWrite, hit)
			return
		}
		ls.scanExpr(v.X, mode, hit)
	case *ast.IndexExpr:
		// Writing an element mutates the container the field holds.
		ls.scanExpr(v.X, mode, hit)
		ls.scanExpr(v.Index, accRead, hit)
	case *ast.SliceExpr:
		ls.scanExpr(v.X, accRead, hit)
		ls.scanExpr(v.Low, accRead, hit)
		ls.scanExpr(v.High, accRead, hit)
		ls.scanExpr(v.Max, accRead, hit)
	case *ast.CallExpr:
		argMode := accRead
		if ls.callToSyncAtomic(v) {
			argMode = accAtomic
			if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok {
				// s.n.Add(1) on an atomic.Int64 field: the receiver
				// chain is the atomic access.
				ls.scanExpr(sel.X, accAtomic, hit)
			}
		} else {
			ls.scanExpr(v.Fun, accRead, hit)
		}
		for _, a := range v.Args {
			ls.scanExpr(a, argMode, hit)
		}
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				ls.scanExpr(kv.Value, accRead, hit)
				continue
			}
			ls.scanExpr(el, accRead, hit)
		}
	case *ast.KeyValueExpr:
		ls.scanExpr(v.Key, accRead, hit)
		ls.scanExpr(v.Value, accRead, hit)
	case *ast.BinaryExpr:
		ls.scanExpr(v.X, accRead, hit)
		ls.scanExpr(v.Y, accRead, hit)
	case *ast.TypeAssertExpr:
		ls.scanExpr(v.X, accRead, hit)
	}
}

// callToSyncAtomic reports whether call resolves to sync/atomic — a
// package function (atomic.AddInt64) or a method on an atomic type
// ((*atomic.Int64).Add).
func (ls *lockSummary) callToSyncAtomic(call *ast.CallExpr) bool {
	fn := calleeFunc(ls.info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}

// ---- the requirement / acquisition fixpoint ----

// sortedReqClasses returns ff's required classes in sorted order.
func sortedReqClasses(m map[lockClass]*lockReq) []lockClass {
	out := make([]lockClass, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedAcqClasses(m map[lockClass]string) []lockClass {
	out := make([]lockClass, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// solveRequirements runs the interprocedural fixpoint: call sites
// discharge callee requirements when the class is held (or the
// receiver is provably fresh), inherit them otherwise, and union the
// callee's transitive acquisitions.
func (ls *lockSummary) solveRequirements() {
	for changed := true; changed; {
		changed = false
		for _, ff := range ls.all {
			for _, cr := range ff.calls {
				cf := ls.calleeLockFacts(cr.call)
				if cf != nil && cf != ff {
					for _, class := range sortedReqClasses(cf.requires) {
						req := cf.requires[class]
						if holdsClass(cr.held, class, req.needExcl) {
							continue
						}
						if ls.freshReceiverCall(cr.call, class, ff) {
							continue
						}
						if ff.addReq(class, req.pos, req.needExcl, req.desc, ff.name+" → "+req.chain) {
							changed = true
						}
					}
					for _, class := range sortedAcqClasses(cf.acquires) {
						if _, ok := ff.acquires[class]; !ok {
							ff.acquires[class] = ff.name + " → " + cf.acquires[class]
							changed = true
						}
					}
					continue
				}
				// Cross-package calls: API lock knowledge only.
				for _, class := range apiAcquiresOf(ls.info, cr.call, ls.pkg.Pkg) {
					if _, ok := ff.acquires[class]; !ok {
						ff.acquires[class] = ff.name + " → " + apiCallName(ls.info, cr.call)
						changed = true
					}
				}
			}
		}
	}
}

// freshReceiverCall reports whether cr's call is a method call on a
// provably fresh receiver whose type owns class — the constructor
// exemption crossing a call: s := &Store{...}; s.recover() may touch
// (Store).mu-guarded fields lock-free.
func (ls *lockSummary) freshReceiverCall(call *ast.CallExpr, class lockClass, ff *lockFacts) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(ls.info, call)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recvType := namedTypeName(sig.Recv().Type())
	if recvType == "" || !strings.HasPrefix(string(class), ls.pkg.Pkg.Path()+"."+recvType+".") {
		return false
	}
	return ls.exemptPath(sel.X, ff)
}

// ---- exported-boundary reporting ----

// reportBoundaries reports every requirement that survives the
// fixpoint on an exported function or exported method of an exported
// type: callers outside the package cannot hold a package-private
// lock, so no call site can ever discharge it. Requirements on
// unexported, uncalled helpers stay silent — they may simply be dead
// entry points. Reports anchor at the guilty access, so a suppression
// there covers every exported path that reaches it.
func (ls *lockSummary) reportBoundaries() {
	seen := make(map[string]bool)
	for _, ff := range ls.all {
		if ff.fn == nil || !ast.IsExported(ff.fn.Name()) {
			continue
		}
		if sig, ok := ff.fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			recvType := namedTypeName(sig.Recv().Type())
			if recvType != "" && !ast.IsExported(recvType) {
				continue
			}
		}
		for _, class := range sortedReqClasses(ff.requires) {
			req := ff.requires[class]
			key := string(class) + "@" + fmt.Sprint(int(req.pos))
			if seen[key] {
				continue
			}
			seen[key] = true
			ls.guardFindings = append(ls.guardFindings, lockFinding{
				pos: req.pos,
				msg: fmt.Sprintf("%s reachable without the lock from exported %s (path %s); callers outside the package cannot hold %s",
					req.desc, funcDisplayName(ff.fn), req.chain, class.display()),
			})
		}
	}
}

// ---- the lock-order graph ----

// buildOrderGraph collects every ordered acquisition pair — class B
// acquired, directly or through a summarized callee or a
// cross-package API, while class A is held — and reports each cycle
// in the resulting graph once, with every edge's witness.
func (ls *lockSummary) buildOrderGraph() {
	var edges []lockEdge
	addEdge := func(held lockSet, to lockClass, pos token.Pos, fn, via string) {
		for _, from := range heldClassList(held) {
			if from == to {
				// Reacquiring the held class is unlockpath's
				// double-lock domain, not an ordering fact.
				continue
			}
			edges = append(edges, lockEdge{from: from, to: to, pos: pos, fn: fn, via: via})
		}
	}
	for _, ff := range ls.all {
		for _, acq := range ff.acquired {
			addEdge(acq.held, acq.class, acq.pos, ff.name, "")
		}
		for _, cr := range ff.calls {
			if len(cr.held) == 0 {
				continue
			}
			if cf := ls.calleeLockFacts(cr.call); cf != nil && cf != ff {
				for _, class := range sortedAcqClasses(cf.acquires) {
					addEdge(cr.held, class, cr.call.Pos(), ff.name, cf.acquires[class])
				}
				continue
			}
			for _, class := range apiAcquiresOf(ls.info, cr.call, ls.pkg.Pkg) {
				addEdge(cr.held, class, cr.call.Pos(), ff.name, apiCallName(ls.info, cr.call))
			}
		}
	}

	// Deduplicate edges (first witness wins; ff iteration order is
	// file order, so witnesses are deterministic) and build the
	// adjacency.
	adj := make(map[lockClass]map[lockClass]lockEdge)
	var nodes []lockClass
	for _, e := range edges {
		if adj[e.from] == nil {
			adj[e.from] = make(map[lockClass]lockEdge)
			nodes = append(nodes, e.from)
		}
		if _, ok := adj[e.from][e.to]; !ok {
			adj[e.from][e.to] = e
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	// DFS cycle detection with deterministic neighbor order.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[lockClass]int)
	var stack []lockClass
	reported := make(map[string]bool)
	var visit func(c lockClass)
	visit = func(c lockClass) {
		color[c] = grey
		stack = append(stack, c)
		for _, next := range sortedEdgeTargets(adj[c]) {
			switch color[next] {
			case white:
				visit(next)
			case grey:
				ls.reportCycle(adj, stack, next, reported)
			}
		}
		stack = stack[:len(stack)-1]
		color[c] = black
	}
	for _, n := range nodes {
		if color[n] == white {
			visit(n)
		}
	}
}

func sortedEdgeTargets(m map[lockClass]lockEdge) []lockClass {
	out := make([]lockClass, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// reportCycle extracts the cycle closing at `back` from the DFS stack
// and reports it once, rotated to its lexicographically smallest
// class so each cycle has one canonical form.
func (ls *lockSummary) reportCycle(adj map[lockClass]map[lockClass]lockEdge, stack []lockClass, back lockClass, reported map[string]bool) {
	start := -1
	for i, c := range stack {
		if c == back {
			start = i
			break
		}
	}
	if start < 0 {
		return
	}
	cycle := append([]lockClass(nil), stack[start:]...)
	// Canonical rotation.
	min := 0
	for i := range cycle {
		if cycle[i] < cycle[min] {
			min = i
		}
	}
	cycle = append(cycle[min:], cycle[:min]...)
	var key strings.Builder
	for _, c := range cycle {
		key.WriteString(string(c))
		key.WriteString("→")
	}
	if reported[key.String()] {
		return
	}
	reported[key.String()] = true

	var parts []string
	var firstPos token.Pos
	for i, c := range cycle {
		next := cycle[(i+1)%len(cycle)]
		e := adj[c][next]
		if i == 0 {
			firstPos = e.pos
		}
		w := fmt.Sprintf("%s → %s acquired in %s at line %d", c.display(), next.display(), e.fn, ls.pkg.Fset.Position(e.pos).Line)
		if e.via != "" {
			w += " (via " + e.via + ")"
		}
		parts = append(parts, w)
	}
	ls.orderFindings = append(ls.orderFindings, lockFinding{
		pos: firstPos,
		msg: "lock-order cycle: " + strings.Join(parts, "; "),
	})
}

// ---- cross-package API lock knowledge ----

// apiLockAcquires is the module's lock table: which lock classes each
// exported API may (transitively) acquire, keyed by
// "pkgpath.ReceiverType" for methods and "pkgpath.Func" for
// functions. Per-package summaries cannot see other packages' bodies
// (a package's imports are type-checked from export data, which
// carries no function bodies), so holding a lock across one of these
// calls creates order edges from this table. Callbacks invoked by the callee are
// the known hole: they would need reverse edges this table cannot
// express.
var apiLockAcquires = map[string][]lockClass{
	"repro/internal/core.Engine":     {"repro/internal/core.Engine.mu"},
	"repro/internal/store.Store":     {"repro/internal/store.Store.mu"},
	"repro/internal/monitor.Monitor": {"repro/internal/monitor.Monitor.mu"},
	"repro/internal/serve.Server": {
		"repro/internal/serve.Server.mu",
		"repro/internal/serve.respMemo.mu",
		"repro/internal/core.Engine.mu",
		"repro/internal/store.Store.mu",
	},
	"repro/internal/mpi.World": {
		"repro/internal/mpi.World.mu",
		"repro/internal/mpi.collective.mu",
		"repro/internal/core.Engine.mu",
	},
	"repro/internal/mpi.Comm": {
		"repro/internal/mpi.World.mu",
		"repro/internal/mpi.collective.mu",
		"repro/internal/core.Engine.mu",
	},
}

// apiAcquiresOf returns the lock classes a cross-package call may
// acquire, per the API table. Same-package calls return nil: their
// real summaries are authoritative.
func apiAcquiresOf(info *types.Info, call *ast.CallExpr, pkg *types.Package) []lockClass {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() == pkg {
		return nil
	}
	key := fn.Pkg().Path() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		key += namedTypeName(sig.Recv().Type())
	} else {
		key += fn.Name()
	}
	return apiLockAcquires[key]
}

// apiCallName names a cross-package call for witness chains.
func apiCallName(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeFunc(info, call); fn != nil {
		return funcDisplayName(fn)
	}
	return "call"
}
