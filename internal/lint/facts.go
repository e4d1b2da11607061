package lint

import "go/ast"

// runFacts is the fact base of one RunAnalyzersAudit call: the
// per-package facts several analyzers read, each built on first use
// and shared by every pass of the run. It lives exactly as long as the
// run, so nothing is retained across packages or across runs, and
// every fact is a pure function of the package, so which analyzer
// asks first never changes an answer. A function's SSA form and
// interval facts are finer-grained still: its funcUnit builds them on
// the first query there (interval.go). Passes run one after another
// and no fact is mutated once built, so no locking is needed.
type runFacts struct {
	pkg        *Package
	sum        *pkgSummary
	locks      *lockSummary
	units      []*funcUnit
	unitsBuilt bool // a package may have no units at all
	cfgs       map[*ast.BlockStmt]*CFG
}

func newRunFacts(pkg *Package) *runFacts {
	return &runFacts{pkg: pkg, cfgs: make(map[*ast.BlockStmt]*CFG)}
}

// summary returns the package's function summaries (summary.go).
func (f *runFacts) summary() *pkgSummary {
	if f.sum == nil {
		f.sum = newPkgSummary(f.pkg)
	}
	return f.sum
}

// lockSets returns the package's lock-set analysis (lockset.go).
func (f *runFacts) lockSets() *lockSummary {
	if f.locks == nil {
		f.locks = newLockSummary(f)
	}
	return f.locks
}

// funcUnits returns the unit of every function declaration and nested
// literal (interval.go); each builds its SSA and interval facts only
// when an analyzer first queries them.
func (f *runFacts) funcUnits() []*funcUnit {
	if !f.unitsBuilt {
		f.units, f.unitsBuilt = buildFuncUnits(f), true
	}
	return f.units
}

// cfg returns the control-flow graph of one function body.
func (f *runFacts) cfg(body *ast.BlockStmt) *CFG {
	g, ok := f.cfgs[body]
	if !ok {
		g = BuildCFG(body)
		f.cfgs[body] = g
	}
	return g
}
