package lint

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestWriteSARIF(t *testing.T) {
	findings := []Finding{{
		File: "internal/mpi/mpi.go", Line: 3, Col: 7,
		Analyzer: "poolalias", Message: "a pooled buffer escapes",
	}}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, All(), findings); err != nil {
		t.Fatal(err)
	}

	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("invalid SARIF JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q with %d runs, want 2.1.0 with 1 run", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "scatterlint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	// One rule per analyzer plus the driver's own rule for malformed
	// directives.
	if want := len(All()) + 1; len(run.Tool.Driver.Rules) != want {
		t.Errorf("got %d rules, want %d", len(run.Tool.Driver.Rules), want)
	}
	// The lock-set analyzers must be first-class rules so their
	// findings and suppressions survive the SARIF pipeline.
	ids := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		ids[r.ID] = true
	}
	for _, name := range []string{"lockguard", "lockorder", "unlockpath"} {
		if !ids[name] {
			t.Errorf("SARIF rules missing %q", name)
		}
	}
	if len(run.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(run.Results))
	}
	res := run.Results[0]
	if res.RuleID != "poolalias" || res.Level != "error" {
		t.Errorf("result ruleId=%q level=%q", res.RuleID, res.Level)
	}
	loc := res.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/mpi/mpi.go" || loc.Region.StartLine != 3 {
		t.Errorf("location = %s:%d", loc.ArtifactLocation.URI, loc.Region.StartLine)
	}
}

func TestWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var out []Finding
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("nil findings must still encode as an array: %v", err)
	}
	if out == nil {
		t.Error("expected [] not null for an empty findings set")
	}
}
