package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// parseFunc type-checks src (a complete import-free file) and returns
// the named function with the file set and type info, for unit-testing
// the dataflow layer without the loader.
func parseFunc(t *testing.T, src, name string) (*token.FileSet, *types.Info, *ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fset, info, fd
		}
	}
	t.Fatalf("function %s not found", name)
	return nil, nil, nil
}

// lineOf returns the 1-based line of the first occurrence of marker.
func lineOf(t *testing.T, src, marker string) int {
	t.Helper()
	idx := strings.Index(src, marker)
	if idx < 0 {
		t.Fatalf("marker %q not in source", marker)
	}
	return 1 + strings.Count(src[:idx], "\n")
}

// refOnLine finds the CFG node starting on the given line.
func refOnLine(t *testing.T, g *CFG, fset *token.FileSet, line int) ref {
	t.Helper()
	for _, blk := range g.Blocks {
		for i, n := range blk.Nodes {
			if fset.Position(n.Pos()).Line == line {
				return ref{blk, i}
			}
		}
	}
	t.Fatalf("no CFG node on line %d", line)
	return ref{}
}

func TestCFGBranchDominance(t *testing.T) {
	const src = `package p

func f(c bool) int {
	x := 0
	if c {
		x = 1
	} else {
		x = 2
	}
	y := x
	return y
}
`
	fset, _, fd := parseFunc(t, src, "f")
	g := BuildCFG(fd.Body)
	init := refOnLine(t, g, fset, lineOf(t, src, "x := 0"))
	then := refOnLine(t, g, fset, lineOf(t, src, "x = 1"))
	els := refOnLine(t, g, fset, lineOf(t, src, "x = 2"))
	use := refOnLine(t, g, fset, lineOf(t, src, "y := x"))

	if !g.Dominates(init, use) {
		t.Error("x := 0 must dominate y := x")
	}
	if g.Dominates(then, use) {
		t.Error("a branch assignment must not dominate the join")
	}
	if !g.CanPrecede(then, use) || !g.CanPrecede(els, use) {
		t.Error("both branch assignments can precede the join")
	}
	if g.CanPrecede(then, els) || g.CanPrecede(els, then) {
		t.Error("exclusive branches must not precede each other")
	}
	if g.CanPrecede(use, init) {
		t.Error("no path leads from the join back to the entry")
	}
}

func TestCFGLoopReachability(t *testing.T) {
	const src = `package p

func g(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}
`
	fset, _, fd := parseFunc(t, src, "g")
	g := BuildCFG(fd.Body)
	body := refOnLine(t, g, fset, lineOf(t, src, "s += i"))
	ret := refOnLine(t, g, fset, lineOf(t, src, "return s"))

	if g.Dominates(body, ret) {
		t.Error("a conditional loop body must not dominate the loop exit")
	}
	if !g.CanPrecede(body, ret) {
		t.Error("the loop body can precede the statement after the loop")
	}
	if !g.CanPrecede(body, body) {
		t.Error("a loop body reaches itself through the back edge")
	}
	if g.CanPrecede(ret, body) {
		t.Error("nothing after the loop reaches back into it")
	}
}

func TestReachDefs(t *testing.T) {
	const src = `package p

func f(c bool) int {
	x := 0
	if c {
		x = 1
	}
	y := x
	x = 3
	z := x
	return y + z
}
`
	fset, info, fd := parseFunc(t, src, "f")
	g := BuildCFG(fd.Body)
	rd := newReachDefs(g, info, fd.Recv, fd.Type)

	var xObj *types.Var
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "x" && xObj == nil {
			xObj, _ = info.Defs[id].(*types.Var)
		}
		return true
	})
	if xObj == nil {
		t.Fatal("no definition of x found")
	}

	rhsSet := func(sites []int) map[string]bool {
		out := make(map[string]bool)
		for _, s := range sites {
			if rhs := rd.sites[s].rhs; rhs != nil {
				out[exprText(rhs)] = true
			}
		}
		return out
	}

	atY := refOnLine(t, g, fset, lineOf(t, src, "y := x"))
	got := rhsSet(rd.defsReaching(xObj, atY))
	if len(got) != 2 || !got["0"] || !got["1"] {
		t.Errorf("defs of x at y := x = %v, want {0, 1}", got)
	}

	atZ := refOnLine(t, g, fset, lineOf(t, src, "z := x"))
	got = rhsSet(rd.defsReaching(xObj, atZ))
	if len(got) != 1 || !got["3"] {
		t.Errorf("defs of x at z := x = %v, want {3}: the redefinition kills earlier defs", got)
	}
}

func TestReachDefsParams(t *testing.T) {
	const src = `package p

func h(a int) int {
	b := a
	if a > 0 {
		a = 2
	}
	c := a + b
	return c
}
`
	fset, info, fd := parseFunc(t, src, "h")
	g := BuildCFG(fd.Body)
	rd := newReachDefs(g, info, fd.Recv, fd.Type)

	var aObj *types.Var
	for _, f := range fd.Type.Params.List {
		for _, name := range f.Names {
			if name.Name == "a" {
				aObj, _ = info.Defs[name].(*types.Var)
			}
		}
	}
	if aObj == nil {
		t.Fatal("no parameter a")
	}

	atB := refOnLine(t, g, fset, lineOf(t, src, "b := a"))
	sites := rd.defsReaching(aObj, atB)
	if len(sites) != 1 || rd.sites[sites[0]].rhs != nil || rd.sites[sites[0]].at.idx != -1 {
		t.Errorf("at b := a only the parameter pseudo-def should reach, got %d sites", len(sites))
	}

	atC := refOnLine(t, g, fset, lineOf(t, src, "c := a + b"))
	if n := len(rd.defsReaching(aObj, atC)); n != 2 {
		t.Errorf("at c := a + b both the parameter and the branch assignment reach, got %d", n)
	}
}

// referenceDominators is the dominance relation as the CFG first
// computed it, kept as the oracle for the dominator tree: the
// iterative fixpoint dom[b] = {b} ∪ ⋂ dom[preds(b)] over an n×n
// matrix, where dom[b][a] reports whether block a dominates block b.
// Blocks unreachable from Entry keep the full set.
func referenceDominators(g *CFG) [][]bool {
	n := len(g.Blocks)

	// Iterative dominators: dom[b] = {b} ∪ ⋂ dom[preds(b)]. Blocks
	// unreachable from Entry keep the full set, which makes dominance
	// queries on dead code vacuously true — the conservative direction
	// for "a required action dominates this site" checks.
	all := make([]bool, n)
	for i := range all {
		all[i] = true
	}
	dom := make([][]bool, n)
	for i := range dom {
		if i == g.Entry.Index {
			dom[i] = make([]bool, n)
			dom[i][i] = true
		} else {
			dom[i] = append([]bool(nil), all...)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, blk := range g.Blocks {
			if blk == g.Entry {
				continue
			}
			nd := append([]bool(nil), all...)
			reachablePred := false
			for _, p := range blk.Preds {
				reachablePred = true
				for i := range nd {
					nd[i] = nd[i] && dom[p.Index][i]
				}
			}
			if !reachablePred {
				copy(nd, all)
			}
			nd[blk.Index] = true
			for i := range nd {
				if nd[i] != dom[blk.Index][i] {
					dom[blk.Index] = nd
					changed = true
					break
				}
			}
		}
	}
	return dom
}

// requireReferenceDominance compares the dominator tree with
// referenceDominators on every ordered block pair of g and returns
// the number of pairs compared.
func requireReferenceDominance(t *testing.T, label string, g *CFG) int {
	t.Helper()
	ref := referenceDominators(g)
	for _, a := range g.Blocks {
		for _, b := range g.Blocks {
			if got, want := g.dominates(a, b), ref[b.Index][a.Index]; got != want {
				t.Fatalf("%s: block %d dominates block %d = %v, reference %v", label, a.Index, b.Index, got, want)
			}
		}
	}
	return len(g.Blocks) * len(g.Blocks)
}

// TestDominatorTreeMatchesReference holds the CFG's dominator tree to
// the matrix fixpoint it replaced, on named shapes — dead code after
// return, labelled break and continue across nested loop headers, and
// switch fallthrough — and on every function body of this module,
// test files and lint fixtures included.
func TestDominatorTreeMatchesReference(t *testing.T) {
	cases := []struct {
		name, fn, src string
		// dom and notDom list (a, b) line markers: the node starting
		// on a's line must (must not) dominate the one on b's line.
		dom, notDom [][2]string
	}{
		{
			name: "after return",
			fn:   "f",
			src: `package p

func f(c bool) int {
	x := 0
	if c {
		return 1
		x = 2
	}
	return x
}
`,
			// x = 2 is unreachable: every block dominates it, and it
			// dominates nothing reachable.
			dom:    [][2]string{{"x := 0", "return x"}, {"return x", "x = 2"}, {"return 1", "x = 2"}},
			notDom: [][2]string{{"x = 2", "return x"}, {"return 1", "return x"}},
		},
		{
			name: "labelled loops",
			fn:   "g",
			src: `package p

func g(n int) int {
	s := 0
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == i {
				continue outer
			}
			if s > n {
				break outer
			}
			s++
		}
		s--
	}
	return s
}
`,
			// Both exits of the outer loop — its condition and the
			// labelled break — pass through its header.
			dom:    [][2]string{{"s := 0", "return s"}, {"for i := 0", "return s"}, {"for j := 0", "s++"}, {"if j == i", "s++"}},
			notDom: [][2]string{{"for j := 0", "return s"}, {"s++", "return s"}, {"s--", "return s"}, {"if s > n", "s--"}},
		},
		{
			name: "switch fallthrough",
			fn:   "h",
			src: `package p

func h(k int) int {
	r := 0
	switch k {
	case 0:
		r = 1
		fallthrough
	case 1:
		r += 2
	default:
		r = 3
	}
	return r
}
`,
			// case 1 is entered from the dispatch and from case 0.
			dom:    [][2]string{{"r := 0", "r += 2"}, {"switch k", "return r"}},
			notDom: [][2]string{{"r = 1", "r += 2"}, {"r += 2", "return r"}, {"r = 3", "return r"}},
		},
	}
	for _, c := range cases {
		fset, _, fd := parseFunc(t, c.src, c.fn)
		g := BuildCFG(fd.Body)
		requireReferenceDominance(t, c.name, g)
		at := func(marker string) ref { return refOnLine(t, g, fset, lineOf(t, c.src, marker)) }
		for _, p := range c.dom {
			if !g.Dominates(at(p[0]), at(p[1])) {
				t.Errorf("%s: %q must dominate %q", c.name, p[0], p[1])
			}
		}
		for _, p := range c.notDom {
			if g.Dominates(at(p[0]), at(p[1])) {
				t.Errorf("%s: %q must not dominate %q", c.name, p[0], p[1])
			}
		}
	}

	bodies, pairs := 0, 0
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join("..", ".."), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != filepath.Join("..", "..") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch v := n.(type) {
			case *ast.FuncDecl:
				body = v.Body
			case *ast.FuncLit:
				body = v.Body
			}
			if body != nil {
				bodies++
				pairs += requireReferenceDominance(t, fset.Position(body.Pos()).String(), BuildCFG(body))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bodies < 1000 {
		t.Fatalf("compared %d function bodies, want the whole module", bodies)
	}
	t.Logf("dominance agrees on %d block pairs of %d function bodies", pairs, bodies)
}
