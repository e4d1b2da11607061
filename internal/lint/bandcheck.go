package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BandCheck proves value-range preconditions of the paper's solvers
// with the SSA interval layer (interval.go), for anything the sparse
// propagation can bound:
//
//  1. an item-count argument at a core solver entry point whose
//     interval is provably negative is rejected (the algorithms are
//     defined for n >= 0 — Eq. 2's domain);
//  2. a provably-nil processor slice at those entry points is rejected
//     (the solvers validate len(procs) >= 1, so a nil slice is a
//     guaranteed runtime error);
//  3. inside the solver packages themselves, an integer division or
//     modulus whose divisor is a function parameter must be dominated
//     by a guard excluding zero — the uniform baseline (core.Uniform's
//     n/p and n%p) divides by a caller-supplied processor count, and an
//     unguarded divide is a latent panic the paper's preconditions do
//     not cover.
//
// A constant argument is the interval [c, c], so one interval rule
// covers constant and proven counts alike; the message says which.
var BandCheck = &Analyzer{
	Name: "bandcheck",
	Doc: "solver entry points must not receive provably negative item counts " +
		"or provably nil processor slices, and integer divides by a parameter " +
		"(such as a processor count) inside the solver packages must be guarded " +
		"against zero divisors (interval proofs over SSA; Eq. 2 domain)",
	Run: runBandCheck,
}

// divGuardPkgPrefixes scopes the divisor-guard rule to the packages
// implementing the paper's arithmetic, where an unguarded divide is a
// schedule-correctness bug rather than app-level style.
var divGuardPkgPrefixes = []string{
	"repro/internal/core",
	"repro/internal/masterslave",
}

// itemCountArgs maps core solver entry points to the index of their
// item-count argument. Package-level functions are keyed by name,
// methods by "Receiver.Name". A negative count at any of these call
// sites, constant or proven, is a guaranteed runtime validation error
// (the paper's algorithms are defined for n >= 0), so reject it at vet
// time. The Plan/Engine entries keep the incremental-solver surface
// (Plan.Lookup subproblems, Plan.Resolve re-solves, Engine.Solve)
// under the same invariant as the from-scratch solvers.
var itemCountArgs = map[string]int{
	"Algorithm1":          1,
	"Algorithm2":          1,
	"SolveLinear":         1,
	"SolveLinearRational": 1,
	"Heuristic":           1,
	"HeuristicRational":   1,
	"BruteForce":          1,
	"SolvePlan":           1,
	"Uniform":             1,
	"Plan.Lookup":         0,
	"Plan.Resolve":        0,
	"Engine.Solve":        1,
}

func runBandCheck(pass *Pass) error {
	divScoped := false
	if pass.Pkg != nil {
		for _, prefix := range divGuardPkgPrefixes {
			if pass.Pkg.Path() == prefix || strings.HasPrefix(pass.Pkg.Path(), prefix+"/") {
				divScoped = true
			}
		}
	}
	for _, unit := range pass.facts.funcUnits() {
		params := paramObjs(pass.TypesInfo, unitRecv(unit), unit.Type)
		walkOwnBody(unit.Body, func(n ast.Node) {
			switch v := n.(type) {
			case *ast.CallExpr:
				checkBandCall(pass, unit, v)
			case *ast.BinaryExpr:
				if divScoped && (v.Op == token.QUO || v.Op == token.REM) {
					checkDivGuard(pass, unit, params, v)
				}
			}
		})
	}
	return nil
}

// checkBandCall applies the interval and nilness proofs to one call of
// a core solver entry point.
func checkBandCall(pass *Pass, unit *funcUnit, call *ast.CallExpr) {
	if fname := pass.Fset.Position(call.Pos()).Filename; strings.HasSuffix(fname, "_test.go") {
		return // solver tests deliberately exercise the runtime validation
	}
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != corePkgPath {
		return
	}
	key := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return
		}
		key = named.Obj().Name() + "." + key
	}
	idx, ok := itemCountArgs[key]
	if !ok {
		return
	}
	if idx < len(call.Args) {
		arg := call.Args[idx]
		if iv := unit.engine().IntervalOfExpr(arg); iv.DefinitelyNegative() {
			if pass.TypesInfo.Types[arg].Value != nil {
				pass.Reportf(arg.Pos(),
					"%s called with a constant negative item count: the paper's solvers are defined for n >= 0 only", key)
			} else {
				pass.Reportf(arg.Pos(),
					"%s called with a provably negative item count (interval proves n <= %d): the paper's solvers are defined for n >= 0 only",
					key, iv.Hi)
			}
		}
	}
	for _, arg := range call.Args {
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok || tv.Type == nil {
			continue
		}
		if _, isSlice := tv.Type.Underlying().(*types.Slice); !isSlice {
			continue
		}
		if unit.engine().NilnessOfExpr(arg) == NilAlways {
			pass.Reportf(arg.Pos(),
				"%s called with a provably nil processor slice: the solvers require at least one processor", key)
		}
	}
}

// checkDivGuard requires a zero-excluding guard on divides whose
// divisor is a function parameter.
func checkDivGuard(pass *Pass, unit *funcUnit, params map[*types.Var]bool, bin *ast.BinaryExpr) {
	if fname := pass.Fset.Position(bin.Pos()).Filename; strings.HasSuffix(fname, "_test.go") {
		return
	}
	if !isIntegerExpr(pass.TypesInfo, bin.Y) {
		return
	}
	id, ok := ast.Unparen(bin.Y).(*ast.Ident)
	if !ok {
		return // only direct parameter divisors; fields and calls are out of scope
	}
	obj, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok || !params[obj] {
		return
	}
	// The use must resolve to the parameter's entry value: a
	// reassigned parameter is a local concern, not a caller contract.
	eng := unit.engine()
	if _, isParam := eng.f.ValueAt(id).(*ValParam); !isParam {
		return
	}
	if iv := eng.IntervalOf(id); !iv.ExcludesZero() {
		op := "division"
		if bin.Op == token.REM {
			op = "modulus"
		}
		pass.Reportf(bin.Y.Pos(),
			"%s by parameter %s is not guarded against zero: the Eq. 4 band arithmetic requires a dominating check such as `if %s <= 0 { return }`",
			op, id.Name, id.Name)
	}
}
