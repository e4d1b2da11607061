package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"testing"
)

// buildSSAFor parses src, builds the CFG and SSA for the named
// function, and returns the pieces unit tests poke at.
func buildSSAFor(t *testing.T, src, name string) (*token.FileSet, *types.Info, *ast.FuncDecl, *SSAFunc) {
	t.Helper()
	fset, info, fd := parseFunc(t, src, name)
	g := BuildCFG(fd.Body)
	f := BuildSSA(g, info, fd.Recv, fd.Type, fd.Body)
	return fset, info, fd, f
}

// useOnLine finds the use of the named identifier on the given line.
func useOnLine(t *testing.T, fset *token.FileSet, info *types.Info, fd *ast.FuncDecl, name string, line int) *ast.Ident {
	t.Helper()
	var found *ast.Ident
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name && info.Uses[id] != nil &&
			fset.Position(id.Pos()).Line == line {
			found = id
		}
		return true
	})
	if found == nil {
		t.Fatalf("no use of %q on line %d", name, line)
	}
	return found
}

func countPhis(f *SSAFunc) int {
	n := 0
	for _, phis := range f.Phis {
		n += len(phis)
	}
	return n
}

func TestSSAPhiAtDiamondJoin(t *testing.T) {
	src := `package p
func f(c bool) int {
	x := 1
	if c {
		x = 2
	}
	return x
}`
	fset, info, fd, f := buildSSAFor(t, src, "f")
	if got := countPhis(f); got != 1 {
		t.Fatalf("placed %d phis, want exactly 1 (x at the join)", got)
	}
	use := useOnLine(t, fset, info, fd, "x", lineOf(t, src, "return x"))
	phi, ok := f.ValueAt(use).(*ValPhi)
	if !ok {
		t.Fatalf("use of x at the join resolves to %T, want *ValPhi", f.ValueAt(use))
	}
	if len(phi.Args) != 2 {
		t.Fatalf("join phi has %d args, want 2", len(phi.Args))
	}
	for i, arg := range phi.Args {
		if _, ok := arg.(*ValDef); !ok {
			t.Errorf("phi arg %d is %T, want *ValDef (one per branch definition)", i, arg)
		}
	}
}

func TestSSAPhiOnlyForRedefinedVariable(t *testing.T) {
	// y is redefined in the branch and read after the join, so it
	// needs a phi there; z has a single definition and needs none.
	src := `package p
func g(c bool) int {
	y := 1
	z := 3
	if c {
		y = 2
	}
	_ = y
	return z
}`
	fset, info, fd, f := buildSSAFor(t, src, "g")
	if got := countPhis(f); got != 1 {
		t.Fatalf("placed %d phis, want 1 (y at the join)", got)
	}
	use := useOnLine(t, fset, info, fd, "y", lineOf(t, src, "_ = y"))
	if _, ok := f.ValueAt(use).(*ValPhi); !ok {
		t.Errorf("use of y at the join resolves to %T, want *ValPhi", f.ValueAt(use))
	}
}

func TestSSALoopHeaderPhi(t *testing.T) {
	src := `package p
func h(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`
	fset, info, fd, f := buildSSAFor(t, src, "h")
	condUse := useOnLine(t, fset, info, fd, "i", lineOf(t, src, "i < n"))
	phi, ok := f.ValueAt(condUse).(*ValPhi)
	if !ok {
		t.Fatalf("loop-condition use of i resolves to %T, want *ValPhi (header phi)", f.ValueAt(condUse))
	}
	if len(phi.Args) != 2 {
		t.Fatalf("header phi for i has %d args, want 2 (init and increment)", len(phi.Args))
	}
	retUse := useOnLine(t, fset, info, fd, "s", lineOf(t, src, "return s"))
	if _, ok := f.ValueAt(retUse).(*ValPhi); !ok {
		t.Errorf("exit use of s resolves to %T, want *ValPhi", f.ValueAt(retUse))
	}
}

func TestSSARangeHeaderReadsOnlyItsHeader(t *testing.T) {
	// d is defined in the loop body, so minimal SSA places a phi for it
	// at the range header. The header node must not read the body:
	// the pure definition d := x * 2 is no use of d.
	src := `package p
func r(xs []int) int {
	s := 0
	for _, x := range xs {
		d := x * 2
		s += d
	}
	return s
}`
	fset, info, fd, f := buildSSAFor(t, src, "r")
	line := lineOf(t, src, "d := x * 2")
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "d" && info.Defs[id] != nil &&
			fset.Position(id.Pos()).Line == line {
			if v := f.ValueAt(id); v != nil {
				t.Errorf("pure definition of d has a use value %T", v)
			}
		}
		return true
	})
	if _, ok := f.ValueAt(useOnLine(t, fset, info, fd, "xs", lineOf(t, src, "range xs"))).(*ValParam); !ok {
		t.Error("the ranged operand xs is not read at the header")
	}
	if _, ok := f.ValueAt(useOnLine(t, fset, info, fd, "d", lineOf(t, src, "s += d"))).(*ValDef); !ok {
		t.Error("the body's use of d does not resolve to its definition")
	}
}

func TestSSAParamAndUnknown(t *testing.T) {
	src := `package p
func k(a, b int) int {
	p := &b
	_ = p
	return a + b
}`
	fset, info, fd, f := buildSSAFor(t, src, "k")
	line := lineOf(t, src, "return a + b")
	aUse := useOnLine(t, fset, info, fd, "a", line)
	if _, ok := f.ValueAt(aUse).(*ValParam); !ok {
		t.Errorf("unredefined parameter a resolves to %T, want *ValParam", f.ValueAt(aUse))
	}
	bUse := useOnLine(t, fset, info, fd, "b", line)
	if _, ok := f.ValueAt(bUse).(*ValUnknown); !ok {
		t.Errorf("address-taken b resolves to %T, want *ValUnknown", f.ValueAt(bUse))
	}
}
