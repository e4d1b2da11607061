// Package experiment regenerates every table and figure of the paper's
// evaluation (Section 5) plus the quantitative claims of the text:
//
//	T1  Table 1   — testbed calibration (machine ratings, alpha/beta)
//	F1  Figure 1  — the stair-effect schematic
//	F2  Figure 2  — original program, uniform distribution
//	F3  Figure 3  — load-balanced, descending bandwidth order
//	F4  Figure 4  — load-balanced, ascending bandwidth order
//	E5  §5.2      — algorithm costs (Alg.1 ≫ Alg.2 ≫ heuristic)
//	E6  §5.2      — heuristic quality (relative error < 6e-6)
//	E7  Thm. 3    — ordering-policy validation
//	E8  Eq. (4)   — rounding guarantee check
//	E9  §3.4      — root-processor choice
//
// Each experiment returns a Report with a rendered text body and
// paper-vs-measured comparison rows; EXPERIMENTS.md is generated from
// these reports.
package experiment

import (
	"fmt"
	"sort"
	"strings"
)

// Comparison is one paper-vs-measured data point.
type Comparison struct {
	// Metric names the compared quantity.
	Metric string
	// Paper is the value the paper reports (NaN-free; 0 when the
	// paper gives no number and only a qualitative claim).
	Paper float64
	// Measured is our reproduction's value.
	Measured float64
	// Unit labels both values.
	Unit string
	// Note qualifies the comparison (e.g. "shape only: simulated
	// platform, not the authors' testbed").
	Note string
}

// Report is the outcome of one experiment.
type Report struct {
	// ID is the experiment identifier (e.g. "fig2").
	ID string
	// Title is a one-line description.
	Title string
	// Body is the rendered text (tables, Gantt charts).
	Body string
	// Comparisons hold the paper-vs-measured rows.
	Comparisons []Comparison
	// SVG, when non-empty, is a rendering of the experiment's figure
	// (scatterbench -svg writes it to <ID>.svg).
	SVG string
	// Doc, when non-nil, is the document the experiment publishes:
	// scatterbench -json marshals it into a committed BENCH_*.json.
	Doc any
}

// String renders the full report.
func (r Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n\n%s", r.ID, r.Title, r.Body)
	if len(r.Comparisons) > 0 {
		sb.WriteString("\npaper vs measured:\n")
		for _, c := range r.Comparisons {
			fmt.Fprintf(&sb, "  %-38s paper %10.4g %-6s measured %10.4g %-6s %s\n",
				c.Metric, c.Paper, c.Unit, c.Measured, c.Unit, c.Note)
		}
	}
	return sb.String()
}

// Runner produces a report. Experiments that need no parameters are
// registered as Runners.
type Runner func() (Report, error)

// registry maps experiment IDs to runners.
var registry = map[string]Runner{}

// canonicalOrder lists the experiments in presentation order: the
// paper's own artifacts first (Table 1, Figures 1-4, the Section 5.2
// analyses), then the validation and extension studies.
var canonicalOrder = []string{
	"table1", "fig1", "fig2", "fig3", "fig4",
	"algocost", "quality", "ordering", "bound", "root",
	"tree", "masterslave", "overlap", "multiround", "sensitivity",
	"heterogeneity", "hierarchy", "recovery",
}

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiment: duplicate id " + id)
	}
	registry[id] = r
}

// IDs returns the experiment IDs in canonical presentation order,
// followed by any registered experiment the canonical list does not
// know (sorted, so the order stays deterministic).
func IDs() []string {
	out := make([]string, 0, len(registry))
	seen := map[string]bool{}
	for _, id := range canonicalOrder {
		if _, ok := registry[id]; ok {
			out = append(out, id)
			seen[id] = true
		}
	}
	var extra []string
	for id := range registry {
		if !seen[id] {
			extra = append(extra, id)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// Get returns the runner for an experiment ID.
func Get(id string) (Runner, bool) {
	r, ok := registry[id]
	return r, ok
}

// RunAll executes every registered experiment, in canonical order.
// Failures are reported per experiment rather than aborting the batch.
func RunAll() []Report {
	var out []Report
	for _, id := range IDs() {
		rep, err := registry[id]()
		if err != nil {
			rep = Report{ID: id, Title: "FAILED", Body: err.Error() + "\n"}
		}
		out = append(out, rep)
	}
	return out
}

// sortedKeys is a small helper for deterministic map iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Markdown renders reports as a Markdown document — the format of the
// repository's EXPERIMENTS.md, produced by `scatterbench -md`.
func Markdown(reports []Report) string {
	var sb strings.Builder
	sb.WriteString("# Experiment results: paper vs measured\n\n")
	sb.WriteString("Generated by `scatterbench -exp all`.\n")
	for _, rep := range reports {
		fmt.Fprintf(&sb, "\n## %s — %s\n\n", rep.ID, rep.Title)
		sb.WriteString("```\n")
		sb.WriteString(rep.Body)
		sb.WriteString("```\n")
		if len(rep.Comparisons) > 0 {
			sb.WriteString("\n| metric | paper | measured | note |\n|---|---|---|---|\n")
			for _, c := range rep.Comparisons {
				fmt.Fprintf(&sb, "| %s | %.6g %s | %.6g %s | %s |\n",
					c.Metric, c.Paper, c.Unit, c.Measured, c.Unit, c.Note)
			}
		}
	}
	return sb.String()
}
