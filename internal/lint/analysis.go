// Package lint is scatterlint: a suite of static analyzers encoding
// this repository's domain invariants — the MPI collective-ordering
// discipline of the simulator, the cost-model preconditions of the
// paper's algorithms (Eq. 2/4: non-negative, null at zero, increasing
// or affine depending on the solver), the virtual-time rule that no
// simulated package consults the wall clock, and the lock hygiene of
// the rank-per-goroutine runtime.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is built on the standard library
// alone, so the repository stays dependency-free. cmd/scatterlint
// drives it through Run, which loads packages via `go list -export`.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one invariant check. It is the unit run by the
// driver and the unit named by //scatterlint:ignore directives.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and directives. It
	// must be a valid identifier.
	Name string
	// Doc is a one-paragraph description of the invariant enforced,
	// starting with the invariant rather than the mechanics.
	Doc string
	// Run applies the analyzer to one package. It reports findings via
	// pass.Report and returns an error only for operational failures
	// (never for findings).
	Run func(pass *Pass) error
}

// A Pass presents one package to an analyzer: its syntax, its type
// information, and a sink for diagnostics. The driver builds passes;
// all passes of one run share that run's fact base.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Fset maps token.Pos values in Files to file positions.
	Fset *token.FileSet
	// Files is the package's parsed syntax, with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's results for Files.
	TypesInfo *types.Info
	// Report delivers one finding.
	Report func(Diagnostic)

	facts *runFacts
}

// Reportf reports a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding: a position and a message. The driver
// stamps the Analyzer name before surfacing it.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos
	// Message states the violated invariant and, where possible, the
	// consequence (a hang, a wrong schedule) rather than just the rule.
	Message string
	// Analyzer is the reporting analyzer's name, filled by the driver.
	Analyzer string
}

// calleeFunc resolves the function or method named by a call, looking
// through generic instantiation syntax (Scatterv[int](...)). It
// returns nil for calls through function-typed variables, conversions
// and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch e := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(e.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(e.X)
	}
	var id *ast.Ident
	switch e := fun.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// mpiPkgPath is the import path of the simulator's MPI runtime, the
// package whose call discipline most of the analyzers police.
const mpiPkgPath = "repro/internal/mpi"

// isMPIFunc reports whether fn belongs to the mpi package.
func isMPIFunc(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == mpiPkgPath
}

// funcDisplayName renders fn for diagnostics: "mpi.Scatterv" for
// package functions, "(*mpi.Comm).Send" for methods.
func funcDisplayName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		recv := sig.Recv().Type()
		name := ""
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
			name = "*"
		}
		if named, ok := recv.(*types.Named); ok {
			name += fn.Pkg().Name() + "." + named.Obj().Name()
		} else {
			name += recv.String()
		}
		return "(" + name + ")." + fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

// exprText renders an expression for diagnostics and for comparing
// syntactic access paths (pin targets against alias sources).
func exprText(e ast.Expr) string {
	return types.ExprString(e)
}

// errorType is the predeclared error interface type.
var errorType = types.Universe.Lookup("error").Type()

// sigReturnsError reports whether the signature's final result is the
// error type, and the index of that result.
func sigReturnsError(sig *types.Signature) (int, bool) {
	res := sig.Results()
	if res.Len() == 0 {
		return -1, false
	}
	last := res.Len() - 1
	if types.Identical(res.At(last).Type(), errorType) {
		return last, true
	}
	return -1, false
}
