package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"slices"
	"strings"
	"testing"
)

func TestMPIErrCheck(t *testing.T) {
	runFixture(t, MPIErrCheck, fixturePath("mpierrcheck"), "repro/internal/lint/testdata/mpierrcheck")
}

func TestCollectiveOrder(t *testing.T) {
	runFixture(t, CollectiveOrder, fixturePath("collectiveorder"), "repro/internal/lint/testdata/collectiveorder")
}

func TestCollectiveDeadlock(t *testing.T) {
	// Checked under an mpi-scoped path so the happens-before rules
	// apply; the failfast shape must be caught by proof, not pattern.
	runFixture(t, CollectiveDeadlock, fixturePath("collectivedeadlock"), "repro/internal/mpi/fixture")
}

func TestCollectiveDeadlockOutOfScope(t *testing.T) {
	pkg, err := sharedLoader.LoadDir(fixturePath("collectivedeadlock"), "repro/internal/lint/testdata/collectivedeadlock")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(pkg, []*Analyzer{CollectiveDeadlock})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("diagnostic outside the concurrency-sim packages: %s", Format(pkg.Fset, d))
	}
}

func TestGoroLeak(t *testing.T) {
	runFixture(t, GoroLeak, fixturePath("goroleak"), "repro/internal/chaos/fixture")
}

func TestBandCheck(t *testing.T) {
	// A core-scoped path activates the divisor-guard rule alongside the
	// entry-point interval proofs.
	runFixture(t, BandCheck, fixturePath("bandcheck"), "repro/internal/core/fixture")
}

func TestSimClock(t *testing.T) {
	// The same fixture fires only when checked under a simulated-time
	// import path; the wants in the file describe that run.
	runFixture(t, SimClock, fixturePath("simclock"), "repro/internal/fault/fixture")
}

func TestSimClockNeutralPath(t *testing.T) {
	// Under a path outside internal/{mpi,simgrid,fault} the analyzer
	// must stay silent, so every want in the fixture goes unmatched —
	// assert directly instead of via runFixture.
	pkg, err := sharedLoader.LoadDir(fixturePath("simclock"), "repro/internal/lint/testdata/simclock")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(pkg, []*Analyzer{SimClock})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("diagnostic outside a simulated-time package: %s", Format(pkg.Fset, d))
	}
}

func TestCostInvariant(t *testing.T) {
	runFixture(t, CostInvariant, fixturePath("costinvariant"), "repro/internal/lint/testdata/costinvariant")
}

func TestMutexChan(t *testing.T) {
	runFixture(t, MutexChan, fixturePath("mutexchan"), "repro/internal/lint/testdata/mutexchan")
}

func TestIgnoreDirectives(t *testing.T) {
	runFixture(t, CostInvariant, fixturePath("directives"), "repro/internal/lint/testdata/directives")
}

func TestMalformedDirective(t *testing.T) {
	pkg, err := sharedLoader.LoadDir(fixturePath("malformed"), "repro/internal/lint/testdata/malformed")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(pkg, []*Analyzer{CostInvariant})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1 (the malformed directive): %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "scatterlint" {
		t.Errorf("malformed directive attributed to %q, want scatterlint", d.Analyzer)
	}
	if !strings.Contains(d.Message, "malformed") {
		t.Errorf("message %q does not mention the malformation", d.Message)
	}
}

func TestPoolAlias(t *testing.T) {
	runFixture(t, PoolAlias, fixturePath("poolalias"), "repro/internal/lint/testdata/poolalias")
}

func TestDetOrder(t *testing.T) {
	// Checked under a chaos-scoped path so the map-order and
	// arrival-order rules apply; the wants describe that run.
	runFixture(t, DetOrder, fixturePath("detorder"), "repro/internal/chaos/fixture")
}

func TestDetOrderOutOfScope(t *testing.T) {
	// The same fixture under a neutral path is out of ordering scope
	// (and has no rank functions), so the analyzer must stay silent.
	pkg, err := sharedLoader.LoadDir(fixturePath("detorder"), "repro/internal/lint/testdata/detorder")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(pkg, []*Analyzer{DetOrder})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("diagnostic outside the ordering-scope packages: %s", Format(pkg.Fset, d))
	}
}

func TestDetOrderWallClock(t *testing.T) {
	runFixture(t, DetOrder, fixturePath("detorderwall"), "repro/internal/lint/testdata/detorderwall")
}

func TestLedgerOrder(t *testing.T) {
	runFixture(t, LedgerOrder, fixturePath("ledgerorder"), "repro/internal/lint/testdata/ledgerorder")
}

func TestAnchoredDirective(t *testing.T) {
	runFixture(t, CostInvariant, fixturePath("anchored"), "repro/internal/lint/testdata/anchored")
}

func TestDirectiveAudit(t *testing.T) {
	pkg, err := sharedLoader.LoadDir(fixturePath("staledir"), "repro/internal/lint/testdata/staledir")
	if err != nil {
		t.Fatal(err)
	}
	diags, audits, err := RunAnalyzersAudit(pkg, []*Analyzer{CostInvariant})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", Format(pkg.Fset, d))
	}
	if len(audits) != 3 {
		t.Fatalf("got %d directive audits, want 3", len(audits))
	}
	if !audits[0].Used {
		t.Error("the first directive suppresses a finding and must audit as used")
	}
	if audits[1].Used {
		t.Error("the second directive suppresses nothing and must audit as stale")
	}
	if len(audits[1].Unknown) != 0 {
		t.Errorf("the second directive names a real analyzer, got unknown %v", audits[1].Unknown)
	}
	if len(audits[2].Unknown) != 1 || audits[2].Unknown[0] != "costinvariantt" {
		t.Errorf("the third directive's typo must be reported unknown, got %v", audits[2].Unknown)
	}
}

func TestNewAnalyzersCleanOnRealPackages(t *testing.T) {
	// The live tree is the negative fixture: core's GC-owned plan rows
	// and cost tables, fault's ledger and mpi's collectives are the
	// canonical clean shapes each analyzer must accept without
	// suppressions.
	pkgs, err := sharedLoader.Load("repro/internal/core", "repro/internal/fault", "repro/internal/mpi")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 3 {
		t.Fatalf("loaded %d packages, want 3", len(pkgs))
	}
	for _, pkg := range pkgs {
		diags, err := RunAnalyzers(pkg, []*Analyzer{PoolAlias, DetOrder, LedgerOrder})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s", pkg.Path, Format(pkg.Fset, d))
		}
	}
}

func TestLockGuard(t *testing.T) {
	runFixture(t, LockGuard, fixturePath("lockguard"), "repro/internal/lint/testdata/lockguard")
}

func TestLockOrder(t *testing.T) {
	runFixture(t, LockOrder, fixturePath("lockorder"), "repro/internal/lint/testdata/lockorder")
}

func TestUnlockPath(t *testing.T) {
	runFixture(t, UnlockPath, fixturePath("unlockpath"), "repro/internal/lint/testdata/unlockpath")
}

func TestLockSetAnalyzersCleanOnRealPackages(t *testing.T) {
	// The six annotated packages are the negative fixture: every
	// mutex-guarded field carries its //scatterlint:guardedby
	// annotation, every lock is released on every path, and the lock
	// graph is acyclic — so the lock-set analyzers must accept the
	// live tree (modulo the reasoned in-source suppressions, which
	// the driver applies here exactly as in CI).
	pkgs, err := sharedLoader.Load(
		"repro/internal/core", "repro/internal/serve", "repro/internal/store",
		"repro/internal/mpi", "repro/internal/monitor", "repro/internal/chaos",
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 6 {
		t.Fatalf("loaded %d packages, want 6", len(pkgs))
	}
	for _, pkg := range pkgs {
		diags, err := RunAnalyzers(pkg, []*Analyzer{LockGuard, LockOrder, UnlockPath})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s", pkg.Path, Format(pkg.Fset, d))
		}
	}
}

func TestLockSetDirectivesAuditUsed(t *testing.T) {
	// The reasoned lockguard suppression in internal/mpi's collective
	// rendezvous is live code, not a fixture: it must keep suppressing
	// a real finding, so -ignoreaudit reports it as used and not as
	// unknown. A refactor that makes it stale (or renames the analyzer)
	// fails here.
	pkgs, err := sharedLoader.Load("repro/internal/mpi")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	_, audits, err := RunAnalyzersAudit(pkgs[0], []*Analyzer{LockGuard, LockOrder, UnlockPath})
	if err != nil {
		t.Fatal(err)
	}
	lockset := 0
	for _, a := range audits {
		keyed := false
		for _, name := range a.Analyzers {
			if name == "lockguard" || name == "lockorder" || name == "unlockpath" {
				keyed = true
			}
		}
		if !keyed {
			continue
		}
		lockset++
		if !a.Used {
			t.Errorf("stale lock-set directive at %v: %q", pkgs[0].Fset.Position(a.Pos), a.Reason)
		}
		if len(a.Unknown) != 0 {
			t.Errorf("lock-set directive names unknown analyzers %v", a.Unknown)
		}
	}
	if lockset < 1 {
		t.Errorf("found %d lock-set directives in internal/mpi, want at least the reasoned collective.go suppression", lockset)
	}
}

func TestAPILockTableNamesMutexFields(t *testing.T) {
	// Every class in the cross-package lock table must name a
	// sync.Mutex or sync.RWMutex field of a struct type in this module:
	// a renamed or deleted lock leaves an entry that orders nothing.
	for api, classes := range apiLockAcquires {
		for _, class := range classes {
			s := string(class)
			dot := strings.LastIndex(s, ".")
			typeDot := strings.LastIndex(s[:max(dot, 0)], ".")
			if typeDot < 0 {
				t.Errorf("%s: class %q is not pkgpath.Type.field", api, s)
				continue
			}
			pkgPath, typeName, field := s[:typeDot], s[typeDot+1:dot], s[dot+1:]
			pkgs, err := sharedLoader.Load(pkgPath)
			if err != nil || len(pkgs) != 1 {
				t.Errorf("%s: class %q: load %s: %v", api, s, pkgPath, err)
				continue
			}
			tn, _ := pkgs[0].Pkg.Scope().Lookup(typeName).(*types.TypeName)
			if tn == nil {
				t.Errorf("%s: class %q: no type %s in %s", api, s, typeName, pkgPath)
				continue
			}
			st, _ := tn.Type().Underlying().(*types.Struct)
			found := false
			for i := 0; st != nil && i < st.NumFields(); i++ {
				if f := st.Field(i); f.Name() == field {
					ft := f.Type().String()
					found = ft == "sync.Mutex" || ft == "sync.RWMutex"
				}
			}
			if !found {
				t.Errorf("%s: class %q names no mutex field of %s", api, s, typeName)
			}
		}
	}
}

func TestLoaderLoadsModulePackages(t *testing.T) {
	pkgs, err := sharedLoader.Load("repro/internal/cost")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "repro/internal/cost" {
		t.Fatalf("Load(repro/internal/cost) = %v", pkgs)
	}
	if pkgs[0].Pkg == nil || pkgs[0].Info == nil {
		t.Fatal("loaded package missing type information")
	}
}

func TestAllAnalyzersRegistered(t *testing.T) {
	all := All()
	if len(all) != 14 {
		t.Fatalf("All() returned %d analyzers, want 14", len(all))
	}
	for _, a := range all {
		if ByName(a.Name) != a {
			t.Errorf("analyzer %q not registered in ByName", a.Name)
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q incomplete", a.Name)
		}
	}
}

// fixtureScopes overrides the import path a fixture directory loads
// under where an analyzer's rules are scoped by package path; the rest
// load under repro/internal/lint/testdata/<dir>.
var fixtureScopes = map[string]string{
	"bandcheck":          "repro/internal/core/fixture",
	"bench":              "repro/internal/chaos/benchfixture",
	"collectivedeadlock": "repro/internal/mpi/fixture",
	"detorder":           "repro/internal/chaos/fixture",
	"goroleak":           "repro/internal/chaos/fixture",
	"simclock":           "repro/internal/fault/fixture",
}

func TestAnalyzerOrderIndependent(t *testing.T) {
	// The run's shared facts (summaries, lock sets, CFGs, and the SSA
	// form, interval facts and guard caches each unit builds on first
	// query) must not depend on which analyzer built them first: the
	// suite and its reverse report the same findings.
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	forward := All()
	reverse := slices.Clone(forward)
	slices.Reverse(reverse)
	total := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		path, ok := fixtureScopes[e.Name()]
		if !ok {
			path = "repro/internal/lint/testdata/" + e.Name()
		}
		pkg, err := sharedLoader.LoadDir(fixturePath(e.Name()), path)
		if err != nil {
			t.Fatal(err)
		}
		var runs [2][]string
		for i, suite := range [][]*Analyzer{forward, reverse} {
			diags, err := RunAnalyzers(pkg, suite)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diags {
				runs[i] = append(runs[i], Format(pkg.Fset, d))
			}
		}
		if !slices.Equal(runs[0], runs[1]) {
			t.Errorf("%s: findings depend on analyzer order:\nAll():\n%s\nreversed:\n%s",
				e.Name(), strings.Join(runs[0], "\n"), strings.Join(runs[1], "\n"))
		}
		total += len(runs[0])
	}
	if total == 0 {
		t.Fatal("no findings on any fixture: the comparison is vacuous")
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Format renders a diagnostic the way `go vet` does:
// file:line:col: message (analyzer).
func Format(fset *token.FileSet, d Diagnostic) string {
	return fmt.Sprintf("%s: %s (%s)", fset.Position(d.Pos), d.Message, d.Analyzer)
}
