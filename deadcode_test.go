package scatter

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports lists the exported functions and methods that no
// production file names but that stay anyway, each with its reason.
// Keys are "<dir>.Func" or "<dir>.Recv.Method", with <dir> relative to
// the module root. The root package, the public facade, is exempt as a
// whole.
var testOnlyExports = map[string]string{
	"internal/core.BruteForce":         "the exhaustive oracle the root scatter_test.go holds every solver to, across packages",
	"internal/core.D":                  "Theorem 1's D(P1..Pp) as the paper defines it; the solvers compute it as chainD with a zero starting sum",
	"internal/fault.RandomNet":         "chaos's golden digests depend on its exact schedules, across packages",
	"internal/fault.DecodeLedger":      "the other half of the ledger codec; the ledgerorder analyzer names it",
	"internal/mpi.Scatter":             "MPI runtime API: the uniform scatter scattervize rewrites and collectiveorder checks",
	"internal/mpi.Barrier":             "MPI runtime API: a collective that collectiveorder checks",
	"internal/mpi.Allreduce":           "MPI runtime API: a collective that collectiveorder checks",
	"internal/mpi.FaultTolerantReduce": "MPI runtime API: a collective that collectiveorder checks",
	"internal/mpi.Comm.Isend":          "MPI runtime API: nonblocking point-to-point (DESIGN §2); mpierrcheck's fixture calls it",
	"internal/mpi.Comm.Irecv":          "MPI runtime API: nonblocking point-to-point (DESIGN §2); mpierrcheck's fixture calls it",
	"internal/mpi.WaitAll":             "MPI runtime API: completes Isend/Irecv requests",
	"internal/mpi.Comm.Clock":          "MPI runtime API: simclock and detorder tell rank code to read it instead of wall time",
}

// TestEveryExportHasAProductionCaller fails when an exported function
// or method is named by no production (non-test) Go file and is not
// on testOnlyExports, and when an entry of testOnlyExports is stale.
// Test-only code belongs in a _test.go file or nowhere. The scan is
// syntactic: a package function counts as used when some production
// file names it (qualified or, inside its package, bare) outside its
// own body; a method counts as used when any production file selects
// a field or method of that name. cmd/, examples/ and the perfbench
// module count as production; testdata directories do not.
func TestEveryExportHasAProductionCaller(t *testing.T) {
	type decl struct {
		key string // the testOnlyExports key
		ref string // what a use looks like: "<import path>.Func" or ".Method"
		fn  *ast.FuncDecl
	}
	type file struct {
		dir string
		ast *ast.File
	}
	fset := token.NewFileSet()
	var files []file
	pkgName := map[string]string{} // import path -> package name
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "testdata" || name == "bin" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		files = append(files, file{dir: dir, ast: f})
		pkgName[importPath(dir)] = f.Name.Name
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var decls []decl
	used := map[string]bool{}
	for _, f := range files {
		imports := map[string]string{} // local name -> import path
		for _, spec := range f.ast.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			local := pkgName[ip]
			if local == "" {
				local = path.Base(ip)
			}
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imports[local] = ip
		}
		// The root package is exempt as a whole: it is the public API,
		// written for importers outside this module. perfbench is its
		// own module and only ever a caller.
		declares := f.dir != "." && f.dir != "perfbench" && !strings.HasPrefix(f.dir, "perfbench/")
		pkg := importPath(f.dir)
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				markUses(d, imports, pkg, "", used)
				continue
			}
			self := ""
			if fd.Recv == nil {
				self = pkg + "." + fd.Name.Name
			}
			markUses(fd, imports, pkg, self, used)
			// Methods of unexported types are reached only through
			// interfaces (sort.Interface, heap.Interface, ...).
			switch {
			case !declares || !fd.Name.IsExported():
			case fd.Recv == nil:
				decls = append(decls, decl{key: f.dir + "." + fd.Name.Name, ref: self, fn: fd})
			case ast.IsExported(recvName(fd.Recv.List[0].Type)):
				decls = append(decls, decl{key: f.dir + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name, ref: "." + fd.Name.Name, fn: fd})
			}
		}
	}

	seen := map[string]bool{}
	var unused []string
	for _, d := range decls {
		if used[d.ref] {
			continue
		}
		seen[d.key] = true
		if _, ok := testOnlyExports[d.key]; !ok {
			unused = append(unused, d.key+" ("+fset.Position(d.fn.Pos()).String()+")")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s: exported, but no production file calls it; give it a caller, move it into a _test.go file, or delete it", u)
	}
	var stale []string
	for k := range testOnlyExports {
		if !seen[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		t.Errorf("testOnlyExports[%q] is stale: it is gone or production code now calls it", k)
	}
}

// importPath maps a directory relative to the module root to the
// import path of the package in it.
func importPath(dir string) string {
	if dir == "." {
		return "repro"
	}
	return "repro/" + dir
}

// recvName is the base type name of a method receiver.
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// markUses records every function and method name that n mentions,
// except the declaration's own name and a package function's calls to
// itself (self).
func markUses(n ast.Node, imports map[string]string, pkg, self string, used map[string]bool) {
	var declName *ast.Ident
	if fd, ok := n.(*ast.FuncDecl); ok {
		declName = fd.Name
	}
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if ip, ok := imports[id.Name]; ok {
					used[ip+"."+x.Sel.Name] = true
					return false
				}
			}
			used["."+x.Sel.Name] = true
			ast.Inspect(x.X, visit) // not x.Sel: it names no package function
			return false
		case *ast.Ident:
			if ref := pkg + "." + x.Name; x != declName && ref != self {
				used[ref] = true
			}
		}
		return true
	}
	ast.Inspect(n, visit)
}
