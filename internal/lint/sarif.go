package lint

import (
	"encoding/json"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// This file renders findings for machines: a flat JSON findings array
// (-json) and SARIF 2.1.0 (-sarif) for code-scanning UIs.

// A Finding is one diagnostic with its position resolved.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// NewFinding resolves a diagnostic against its file set, with the file
// path made repository-relative when possible (SARIF viewers want
// stable paths).
func NewFinding(fset *token.FileSet, d Diagnostic) Finding {
	pos := fset.Position(d.Pos)
	return Finding{
		File:     relToWd(pos.Filename),
		Line:     pos.Line,
		Col:      pos.Column,
		Analyzer: d.Analyzer,
		Message:  d.Message,
	}
}

// relToWd makes a path relative to the working directory when it lies
// inside it, in slash form, so findings are stable across machines.
func relToWd(file string) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, rerr := filepath.Rel(wd, file); rerr == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
	}
	return filepath.ToSlash(file)
}

// WriteJSON emits the findings as a JSON array.
func WriteJSON(w io.Writer, findings []Finding) error {
	if findings == nil {
		findings = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(findings)
}

// sarif* types model the minimal SARIF 2.1.0 subset code-scanning
// consumers require: one run, one rule per analyzer, one result per
// finding with a physical location.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF emits the findings as a SARIF 2.1.0 log with one rule per
// analyzer in the run set (so rules render even when clean).
func WriteSARIF(w io.Writer, analyzers []*Analyzer, findings []Finding) error {
	driver := sarifDriver{Name: "scatterlint"}
	for _, a := range analyzers {
		driver.Rules = append(driver.Rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMessage{Text: a.Doc},
		})
	}
	// The driver's own malformed-directive findings use this rule id.
	driver.Rules = append(driver.Rules, sarifRule{
		ID:               "scatterlint",
		ShortDescription: sarifMessage{Text: "driver diagnostics (malformed suppression directives)"},
	})
	results := []sarifResult{}
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: f.File},
					Region:           sarifRegion{StartLine: f.Line, StartColumn: f.Col},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: driver}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(log)
}
