package lint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTestModule lays out a disposable module named repro (so the
// scope-gated analyzers fire) with three packages: alpha (in goroleak
// scope, carrying one real finding and one suppressed one), beta
// (importing alpha, with an in-package test and an external test
// package), and gamma (independent).
func writeTestModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module repro\n\ngo 1.22\n",
		"internal/chaos/alpha/alpha.go": `// Package alpha carries one goroutine leak and one suppressed one.
package alpha

// Leak parks a goroutine forever: the channel is local and nobody
// closes or sends.
func Leak() {
	ch := make(chan int)
	go func() {
		<-ch
	}()
}

// Excused is the same shape under a directive.
func Excused() {
	ch := make(chan int)
	//scatterlint:ignore goroleak deliberate leak to exercise the audit path
	go func() {
		<-ch
	}()
}

// N is imported by beta.
const N = 3
`,
		"internal/beta/beta.go": `// Package beta depends on alpha.
package beta

import "repro/internal/chaos/alpha"

// Total is N scaled.
func Total() int { return alpha.N * 2 }
`,
		"internal/beta/beta_test.go": `package beta

import "testing"

// TotalForTest exports Total to the external test package.
var TotalForTest = Total

func TestTotal(t *testing.T) {
	if Total() != 6 {
		t.Fatal("want 6")
	}
}
`,
		"internal/beta/beta_ext_test.go": `package beta_test

import (
	"testing"

	"repro/internal/beta"
)

func TestTotalExternal(t *testing.T) {
	if beta.Total() != 6 || beta.TotalForTest() != 6 {
		t.Fatal("want 6")
	}
}
`,
		"internal/gamma/gamma.go": `// Package gamma depends on nothing.
package gamma

// Twice doubles.
func Twice(x int) int { return x + x }
`,
	}
	for name, content := range files {
		full := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runModule runs the full suite over the module with a fresh loader,
// as a separate scatterlint process would, and returns the findings
// and audits JSON-encoded.
func runModule(t *testing.T, dir string) ([]Finding, []AuditRecord, string) {
	t.Helper()
	l := NewLoader(dir)
	l.IncludeTests = true
	findings, audits, err := Run(l, All(), "./...")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(struct {
		F []Finding
		A []AuditRecord
	}{findings, audits})
	if err != nil {
		t.Fatal(err)
	}
	return findings, audits, string(data)
}

func TestRunModule(t *testing.T) {
	dir := writeTestModule(t)

	l := NewLoader(dir)
	l.IncludeTests = true
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	units := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		units[p.Path] = p
	}
	if len(pkgs) < 3 {
		t.Fatalf("loaded %d units, want >= 3", len(pkgs))
	}
	beta := units["repro/internal/beta"]
	if beta == nil {
		t.Fatal("beta not loaded")
	}
	var names []string
	for _, f := range beta.Files {
		names = append(names, filepath.Base(beta.Fset.Position(f.Pos()).Filename))
	}
	if !strings.Contains(strings.Join(names, " "), "beta_test.go") {
		t.Errorf("beta unit files = %v, want its in-package test file loaded", names)
	}
	if units["repro/internal/beta [xtest]"] == nil {
		t.Errorf("units = %v, want beta's external test package as a [xtest] unit", pkgs)
	}

	findings, audits, first := runModule(t, dir)
	if len(findings) != 1 || findings[0].Analyzer != "goroleak" ||
		!strings.HasSuffix(findings[0].File, "internal/chaos/alpha/alpha.go") {
		t.Fatalf("findings = %v, want exactly the alpha goroutine leak", findings)
	}
	if len(audits) != 1 || !audits[0].Used {
		t.Fatalf("audits = %v, want the one used directive", audits)
	}

	if _, _, second := runModule(t, dir); second != first {
		t.Errorf("two runs differ:\nfirst:  %s\nsecond: %s", first, second)
	}
}
