package scatter

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/lint"
)

// lintBenchStage is one row of BENCH_lint.json.
type lintBenchStage struct {
	Name     string  `json:"name"`
	Millis   float64 `json:"ms"`
	Packages int     `json:"packages"`
	Findings int     `json:"findings"`
}

// copyModule copies the module's go.mod and .go files into dst so the
// cache stages can edit sources without touching the live tree.
func copyModule(b *testing.B, dst string) {
	b.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "bin" {
				return filepath.SkipDir
			}
			return nil
		}
		if path != "go.mod" && !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		full := filepath.Join(dst, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return err
		}
		return os.WriteFile(full, data, 0o644)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLint measures scatterlint's runtime over this module: the
// loader (go list -export plus type-checking), the four syntactic
// analyzers, the three dataflow analyzers (CFG + reaching definitions
// + summary fixpoint), the three SSA analyzers (phi placement +
// interval/nilness propagation + happens-before proofs), the four
// lock-set analyzers (guarded-field dataflow + lock-order graph +
// release discipline + channel ops under a held lock), the full suite
// over the generated synthetic fixture (internal/lint/testdata/bench),
// and the incremental cache cold vs. warm after a one-package edit. Each
// family runs as its own suite, so it builds every shared fact it
// reads (summaries, CFGs, lock sets) itself. The tree is clean, so
// every findings count must be zero and the benchmark measures pure
// analysis cost. Results go to BENCH_lint.json; regenerate with
// `make bench-lint`.
func BenchmarkLint(b *testing.B) {
	legacy := []*lint.Analyzer{lint.MPIErrCheck, lint.CollectiveOrder, lint.SimClock, lint.CostInvariant}
	dataflow := []*lint.Analyzer{lint.PoolAlias, lint.DetOrder, lint.LedgerOrder}
	ssa := []*lint.Analyzer{lint.CollectiveDeadlock, lint.GoroLeak, lint.BandCheck}
	lockset := []*lint.Analyzer{lint.LockGuard, lint.LockOrder, lint.UnlockPath, lint.MutexChan}

	run := func(b *testing.B, pkgs []*lint.Package, analyzers []*lint.Analyzer) (float64, int) {
		b.Helper()
		var ms float64
		findings := 0
		for i := 0; i < b.N; i++ {
			findings = 0
			start := time.Now()
			for _, pkg := range pkgs {
				diags, err := lint.RunAnalyzers(pkg, analyzers)
				if err != nil {
					b.Fatal(err)
				}
				findings += len(diags)
			}
			ms = float64(time.Since(start).Microseconds()) / 1000
			b.ReportMetric(ms, "ms")
		}
		return ms, findings
	}

	var stages []lintBenchStage
	var pkgs []*lint.Package

	b.Run("load", func(b *testing.B) {
		var ms float64
		for i := 0; i < b.N; i++ {
			start := time.Now()
			loader := lint.NewLoader(".")
			var err error
			pkgs, err = loader.Load("./...")
			if err != nil {
				b.Fatal(err)
			}
			ms = float64(time.Since(start).Microseconds()) / 1000
			b.ReportMetric(ms, "ms")
		}
		stages = append(stages, lintBenchStage{Name: "load", Millis: ms, Packages: len(pkgs)})
	})
	if pkgs == nil {
		b.Fatal("load stage did not run")
	}

	b.Run("legacy", func(b *testing.B) {
		ms, findings := run(b, pkgs, legacy)
		stages = append(stages, lintBenchStage{Name: "legacy", Millis: ms, Packages: len(pkgs), Findings: findings})
	})

	b.Run("dataflow", func(b *testing.B) {
		ms, findings := run(b, pkgs, dataflow)
		stages = append(stages, lintBenchStage{Name: "dataflow", Millis: ms, Packages: len(pkgs), Findings: findings})
	})

	b.Run("ssa", func(b *testing.B) {
		ms, findings := run(b, pkgs, ssa)
		stages = append(stages, lintBenchStage{Name: "ssa", Millis: ms, Packages: len(pkgs), Findings: findings})
	})

	b.Run("lockset", func(b *testing.B) {
		ms, findings := run(b, pkgs, lockset)
		stages = append(stages, lintBenchStage{Name: "lockset", Millis: ms, Packages: len(pkgs), Findings: findings})
	})

	b.Run("synthetic", func(b *testing.B) {
		loader := lint.NewLoader(".")
		pkg, err := loader.LoadDir("internal/lint/testdata/bench", "repro/internal/chaos/benchfixture")
		if err != nil {
			b.Fatal(err)
		}
		ms, findings := run(b, []*lint.Package{pkg}, lint.All())
		stages = append(stages, lintBenchStage{Name: "synthetic", Millis: ms, Packages: 1, Findings: findings})
	})

	// The cache stages replay the edit-lint loop against a disposable
	// copy of the module: a cold run populates the cache, then one leaf
	// package is edited and the warm run re-analyzes only it.
	tmpMod := b.TempDir()
	copyModule(b, tmpMod)
	cacheDir := filepath.Join(tmpMod, "lintcache")
	cachedRun := func(b *testing.B) (float64, lint.CacheStats, int) {
		b.Helper()
		start := time.Now()
		l := lint.NewLoader(tmpMod)
		l.IncludeTests = true
		findings, _, stats, err := lint.RunCachedAnalysis(l, &lint.Cache{Dir: cacheDir}, lint.All(), "./...")
		if err != nil {
			b.Fatal(err)
		}
		return float64(time.Since(start).Microseconds()) / 1000, stats, len(findings)
	}

	b.Run("cache-cold", func(b *testing.B) {
		var ms float64
		var stats lint.CacheStats
		findings := 0
		for i := 0; i < b.N; i++ {
			if err := os.RemoveAll(cacheDir); err != nil {
				b.Fatal(err)
			}
			ms, stats, findings = cachedRun(b)
			b.ReportMetric(ms, "ms")
		}
		stages = append(stages, lintBenchStage{Name: "cache-cold", Millis: ms, Packages: stats.Units, Findings: findings})
	})

	b.Run("cache-warm-edit", func(b *testing.B) {
		leaf := filepath.Join(tmpMod, "examples", "quickstart", "main.go")
		var ms float64
		var stats lint.CacheStats
		findings := 0
		for i := 0; i < b.N; i++ {
			f, err := os.OpenFile(leaf, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.WriteString("\n// benchmark edit\n"); err != nil {
				b.Fatal(err)
			}
			f.Close()
			ms, stats, findings = cachedRun(b)
			b.ReportMetric(ms, "ms")
			if stats.Misses != 1 {
				b.Fatalf("one-leaf edit re-analyzed %d units, want 1", stats.Misses)
			}
		}
		stages = append(stages, lintBenchStage{Name: "cache-warm-edit", Millis: ms, Packages: stats.Misses, Findings: findings})
	})

	for _, s := range stages {
		if s.Findings != 0 {
			b.Fatalf("stage %s reported %d findings on a tree that must be clean", s.Name, s.Findings)
		}
	}
	if len(stages) == 8 {
		var cold, warm float64
		for _, s := range stages {
			switch s.Name {
			case "cache-cold":
				cold = s.Millis
			case "cache-warm-edit":
				warm = s.Millis
			}
		}
		speedup := 0.0
		if warm > 0 {
			speedup = cold / warm
		}
		doc := struct {
			Benchmark   string           `json:"benchmark"`
			Stages      []lintBenchStage `json:"stages"`
			WarmSpeedup float64          `json:"warm_speedup_x"`
		}{"Lint", stages, speedup}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_lint.json", append(buf, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}
