package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// directivePrefix introduces a suppression comment:
//
//	//scatterlint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The directive suppresses the named analyzers' findings on its own
// line and on the line below it (so it can trail the offending
// statement or sit on its own line above it). When the line below
// starts a multi-line statement, declaration or composite-literal
// element that contains no nested block, the suppression covers that
// whole node — anchoring to syntax so `gofmt` reflowing a literal
// cannot silently un-suppress a finding on its later lines. The
// reason is mandatory: an unexplained suppression is itself reported.
const directivePrefix = "//scatterlint:ignore"

// ignoreDirective is one parsed suppression comment.
type ignoreDirective struct {
	pos       token.Pos
	analyzers map[string]bool
	reason    string

	file string
	line int
	// [coverStart, coverEnd] is the line range of the anchor node, if
	// any (0,0 when the directive anchors to nothing multi-line).
	coverStart, coverEnd int
	// used records whether the directive suppressed at least one
	// finding in this run — the input to the staleness audit.
	used bool
}

// covers reports whether the directive's range includes pos.
func (dir *ignoreDirective) covers(pos token.Position) bool {
	if pos.Filename != dir.file {
		return false
	}
	if pos.Line == dir.line || pos.Line == dir.line+1 {
		return true
	}
	return dir.coverStart != 0 && dir.coverStart <= pos.Line && pos.Line <= dir.coverEnd
}

// parseDirectives extracts every scatterlint:ignore directive from the
// files, reporting malformed ones (no analyzer, no reason) as
// diagnostics attributed to the driver itself.
func parseDirectives(fset *token.FileSet, files []*ast.File, report func(Diagnostic)) []*ignoreDirective {
	var dirs []*ignoreDirective
	for _, f := range files {
		anchors := anchorLines(fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					report(Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "scatterlint",
						Message:  "malformed scatterlint:ignore directive: want //scatterlint:ignore <analyzer> <reason>",
					})
					continue
				}
				names := make(map[string]bool)
				for _, n := range strings.Split(fields[0], ",") {
					names[n] = true
				}
				cp := fset.Position(c.Pos())
				dir := &ignoreDirective{
					pos:       c.Pos(),
					analyzers: names,
					reason:    strings.Join(fields[1:], " "),
					file:      cp.Filename,
					line:      cp.Line,
				}
				// Anchor: a node starting on the directive's own line
				// (trailing form) wins over one on the next line
				// (above form).
				if end, ok := anchors[cp.Line]; ok {
					dir.coverStart, dir.coverEnd = cp.Line, end
				} else if end, ok := anchors[cp.Line+1]; ok {
					dir.coverStart, dir.coverEnd = cp.Line+1, end
				}
				dirs = append(dirs, dir)
			}
		}
	}
	return dirs
}

// anchorLines maps a start line to the largest end line of any
// anchorable node starting there. Anchorable nodes are "leaf-ish":
// simple statements, value specs, struct fields and composite-literal
// elements that contain no nested block — so a directive can cover a
// reformatted multi-line literal, but never an entire if/for body.
func anchorLines(fset *token.FileSet, file *ast.File) map[int]int {
	anchors := make(map[int]int)
	consider := func(n ast.Node) {
		start := fset.Position(n.Pos()).Line
		end := fset.Position(n.End()).Line
		if end > anchors[start] {
			anchors[start] = end
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
			*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.LabeledStmt:
			// Block-bearing statements: anchoring to them would let one
			// directive silence a whole body.
		case ast.Stmt:
			if !containsBlock(v) {
				consider(v)
			}
		case *ast.ValueSpec, *ast.Field:
			if !containsBlock(n) {
				consider(n)
			}
		case *ast.CompositeLit:
			for _, elt := range v.Elts {
				if !containsBlock(elt) {
					consider(elt)
				}
			}
		}
		return true
	})
	return anchors
}

// containsBlock reports whether the node contains a nested block or
// function literal — the disqualifier for anchoring.
func containsBlock(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		switch m.(type) {
		case *ast.BlockStmt, *ast.FuncLit:
			found = true
		}
		return !found
	})
	return found
}

// suppressed reports whether d is covered by a directive: one naming
// d.Analyzer (or "all") whose anchored range includes the diagnostic.
// Matching directives are marked used for the staleness audit.
func suppressed(fset *token.FileSet, dirs []*ignoreDirective, d Diagnostic) bool {
	if len(dirs) == 0 {
		return false
	}
	pos := fset.Position(d.Pos)
	hit := false
	for _, dir := range dirs {
		if !dir.analyzers[d.Analyzer] && !dir.analyzers["all"] {
			continue
		}
		if dir.covers(pos) {
			dir.used = true
			hit = true
		}
	}
	return hit
}

// A DirectiveAudit describes one scatterlint:ignore directive after a
// run: whether it suppressed anything, and whether it names analyzers
// that do not exist. Stale directives (Used == false) are dead config
// that silently stops protecting the line it once excused.
type DirectiveAudit struct {
	// Pos locates the directive comment.
	Pos token.Pos
	// Analyzers are the names the directive claims to suppress.
	Analyzers []string
	// Reason is the justification text.
	Reason string
	// Used reports whether the directive suppressed >= 1 finding.
	Used bool
	// Unknown lists named analyzers that are not in the run set — a
	// typo or a removed analyzer, stale by definition.
	Unknown []string
}

// An AuditRecord is a DirectiveAudit with its position resolved to
// file/line/column, so it outlives the FileSet that produced it.
type AuditRecord struct {
	File      string
	Line      int
	Col       int
	Analyzers []string
	Reason    string
	Used      bool
	Unknown   []string
}

// Run loads the packages matching the patterns (./... by default) and
// applies the analyzers to each unit in import-path order. It returns
// the surviving findings and an audit record for every
// scatterlint:ignore directive, both with resolved positions.
func Run(l *Loader, analyzers []*Analyzer, patterns ...string) ([]Finding, []AuditRecord, error) {
	pkgs, err := l.Load(patterns...)
	if err != nil {
		return nil, nil, err
	}
	var findings []Finding
	var audits []AuditRecord
	for _, pkg := range pkgs {
		diags, dirAudits, err := RunAnalyzersAudit(pkg, analyzers)
		if err != nil {
			return nil, nil, err
		}
		for _, d := range diags {
			findings = append(findings, NewFinding(pkg.Fset, d))
		}
		for _, a := range dirAudits {
			pos := pkg.Fset.Position(a.Pos)
			audits = append(audits, AuditRecord{
				File:      relToWd(pos.Filename),
				Line:      pos.Line,
				Col:       pos.Column,
				Analyzers: a.Analyzers,
				Reason:    a.Reason,
				Used:      a.Used,
				Unknown:   a.Unknown,
			})
		}
	}
	return findings, audits, nil
}

// RunAnalyzers applies the analyzers to one loaded package and returns
// the surviving diagnostics, sorted by position. Findings covered by a
// scatterlint:ignore directive are dropped.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunAnalyzersAudit(pkg, analyzers)
	return diags, err
}

// RunAnalyzersAudit is RunAnalyzers plus the directive audit: every
// scatterlint:ignore directive in the package is returned with its
// usage recorded, so callers (scatterlint -ignoreaudit) can report
// stale suppressions.
func RunAnalyzersAudit(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, []DirectiveAudit, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	known["all"] = true
	known["scatterlint"] = true // the driver's own malformed-directive findings

	var raw []Diagnostic
	collect := func(d Diagnostic) { raw = append(raw, d) }

	dirs := parseDirectives(pkg.Fset, pkg.Files, collect)
	facts := newRunFacts(pkg)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
			Report: func(d Diagnostic) {
				d.Analyzer = a.Name
				raw = append(raw, d)
			},
			facts: facts,
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.Path, err)
		}
	}

	var kept []Diagnostic
	for _, d := range raw {
		if !suppressed(pkg.Fset, dirs, d) {
			kept = append(kept, d)
		}
	}
	// Ties at one position break by analyzer and message, so the
	// order never depends on the order the analyzers ran in.
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos != b.Pos {
			return a.Pos < b.Pos
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})

	audits := make([]DirectiveAudit, 0, len(dirs))
	for _, dir := range dirs {
		a := DirectiveAudit{Pos: dir.pos, Reason: dir.reason, Used: dir.used}
		for name := range dir.analyzers {
			a.Analyzers = append(a.Analyzers, name)
			if !known[name] {
				a.Unknown = append(a.Unknown, name)
			}
		}
		sort.Strings(a.Analyzers)
		sort.Strings(a.Unknown)
		audits = append(audits, a)
	}
	sort.Slice(audits, func(i, j int) bool { return audits[i].Pos < audits[j].Pos })
	return kept, audits, nil
}
