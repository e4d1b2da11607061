//go:build go1.24

// These tests use t.Chdir, new in Go 1.24; the module declares go 1.22.

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// inModule writes a disposable module named repro (so the scope-gated
// analyzers fire) holding the given files and makes it the working
// directory for the rest of the test.
func inModule(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module repro\n\ngo 1.22\n"
	for name, content := range files {
		full := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
}

// run calls standalone over ./... and returns its exit code, stdout
// and stderr.
func run(t *testing.T, opt options) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code, err := standalone(&stdout, &stderr, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	return code, stdout.String(), stderr.String()
}

const cleanPkg = `// Package gamma depends on nothing.
package gamma

// Twice doubles.
func Twice(x int) int { return x + x }
`

// leakPkg parks a goroutine forever in goroleak's scope.
const leakPkg = `package alpha

func Leak() {
	ch := make(chan int)
	go func() {
		<-ch
	}()
}
`

func TestStandaloneCleanJSON(t *testing.T) {
	inModule(t, map[string]string{"internal/gamma/gamma.go": cleanPkg})
	code, stdout, stderr := run(t, options{jsonOut: true})
	if code != 0 {
		t.Errorf("exit %d on a clean tree, want 0 (stderr: %s)", code, stderr)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Errorf("-json stdout = %q, want []", stdout)
	}
}

func TestStandaloneFinding(t *testing.T) {
	inModule(t, map[string]string{"internal/chaos/alpha/alpha.go": leakPkg})
	code, _, stderr := run(t, options{})
	if code != 1 {
		t.Errorf("exit %d on a finding, want 1", code)
	}
	if !strings.Contains(stderr, "internal/chaos/alpha/alpha.go:5:") || !strings.Contains(stderr, "(goroleak)") {
		t.Errorf("stderr = %q, want the goroleak finding at alpha.go:5", stderr)
	}
}

func TestStandaloneIgnoreAudit(t *testing.T) {
	stale := strings.Replace(cleanPkg, "func Twice",
		"//scatterlint:ignore detorder nothing here to suppress\nfunc Twice", 1)
	inModule(t, map[string]string{"internal/gamma/gamma.go": stale})
	code, _, stderr := run(t, options{ignoreAudit: true})
	if code != 1 {
		t.Errorf("-ignoreaudit exit %d on a stale directive, want 1", code)
	}
	if !strings.Contains(stderr, "internal/gamma/gamma.go:5:1: stale scatterlint:ignore [detorder]") {
		t.Errorf("stderr = %q, want the stale directive named", stderr)
	}
}

func TestStandaloneSARIF(t *testing.T) {
	inModule(t, map[string]string{"internal/chaos/alpha/alpha.go": leakPkg})
	code, stdout, _ := run(t, options{sarifOut: true})
	if code != 1 {
		t.Errorf("exit %d on a finding, want 1", code)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("-sarif output is not JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q with %d runs, want 2.1.0 with 1 run", log.Version, len(log.Runs))
	}
	rules := make(map[string]int)
	for _, r := range log.Runs[0].Tool.Driver.Rules {
		rules[r.ID]++
	}
	for _, a := range lint.All() {
		if rules[a.Name] != 1 {
			t.Errorf("analyzer %s has %d rules, want 1", a.Name, rules[a.Name])
		}
	}
	if res := log.Runs[0].Results; len(res) != 1 || res[0].RuleID != "goroleak" {
		t.Errorf("results = %+v, want the one goroleak finding", res)
	}
}
