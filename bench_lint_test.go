package scatter

import (
	"encoding/json"
	"os"
	"runtime"
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

// BenchmarkLint measures scatterlint's runtime over this module: the
// loader (go list -export plus type-checking), each analyzer of
// lint.All() on its own, the full suite, and the full suite over the
// generated synthetic fixture (internal/lint/testdata/bench). An
// analyzer's stage runs it as a suite of one, so it builds every
// shared fact it reads (summaries, CFGs, lock sets) itself; the
// per-analyzer stages therefore sum to more than the full suite. The
// tree is clean, so every findings count must be zero and the
// benchmark measures pure analysis cost. Results go to BENCH_lint.json
// with the host's GOMAXPROCS and Go version; regenerate with
// `make bench-lint`.
func BenchmarkLint(b *testing.B) {
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

	all := lint.All()
	for _, a := range all {
		b.Run(a.Name, func(b *testing.B) {
			ms, findings := run(b, pkgs, []*lint.Analyzer{a})
			stages = append(stages, lintBenchStage{Name: a.Name, Millis: ms, Packages: len(pkgs), Findings: findings})
		})
	}

	b.Run("suite", func(b *testing.B) {
		ms, findings := run(b, pkgs, all)
		stages = append(stages, lintBenchStage{Name: "suite", Millis: ms, Packages: len(pkgs), Findings: findings})
	})

	b.Run("synthetic", func(b *testing.B) {
		loader := lint.NewLoader(".")
		pkg, err := loader.LoadDir("internal/lint/testdata/bench", "repro/internal/chaos/benchfixture")
		if err != nil {
			b.Fatal(err)
		}
		ms, findings := run(b, []*lint.Package{pkg}, all)
		stages = append(stages, lintBenchStage{Name: "synthetic", Millis: ms, Packages: 1, Findings: findings})
	})

	for _, s := range stages {
		if s.Findings != 0 {
			b.Fatalf("stage %s reported %d findings on a tree that must be clean", s.Name, s.Findings)
		}
	}
	if len(stages) == len(all)+3 {
		doc := struct {
			Benchmark  string           `json:"benchmark"`
			GOMAXPROCS int              `json:"gomaxprocs"`
			GoVersion  string           `json:"go_version"`
			Stages     []lintBenchStage `json:"stages"`
		}{"Lint", runtime.GOMAXPROCS(0), runtime.Version(), stages}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_lint.json", append(buf, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}
