package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path.
	Path string
	// Fset positions the package's syntax.
	Fset *token.FileSet
	// Files is the parsed syntax, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds type-checker results for Files.
	Info *types.Info
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Module       *struct{ Path string }
	Standard     bool
	DepOnly      bool
}

// A Loader type-checks packages of the enclosing module using export
// data produced by the go toolchain (`go list -export`), so no
// third-party loader is needed and no source of any dependency is
// re-checked.
type Loader struct {
	// Dir is the directory the `go list` queries run in; it must be
	// inside the module. Empty means the current directory.
	Dir string

	// IncludeTests makes Load type-check _test.go files too: in-package
	// test files join their package's unit, external test packages
	// (package foo_test) load as separate units suffixed " [xtest]".
	// This matches `go vet` coverage, which cmd/scatterlint always
	// asks for: most ignore directives live in tests, so the
	// suppression audit needs them loaded.
	IncludeTests bool

	// exports maps package path -> export data file, for every
	// dependency seen so far.
	exports map[string]string
	fset    *token.FileSet
	imp     types.Importer
}

// NewLoader returns a loader rooted at dir.
func NewLoader(dir string) *Loader {
	fset := token.NewFileSet()
	l := &Loader{Dir: dir, exports: make(map[string]string), fset: fset}
	l.imp = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	})
	return l
}

// goList runs `go list -export -deps -json` over the patterns and
// returns the decoded package records, recording export data for every
// package seen (dependencies included).
func (l *Loader) goList(patterns ...string) ([]*listedPackage, error) {
	args := append([]string{"list", "-export", "-deps",
		"-json=Export,ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles,Module,Standard,DepOnly"},
		patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Load type-checks the module packages matching the patterns
// (defaulting to ./...) and returns them sorted by import path.
// Standard-library and other dependency-only packages are consumed as
// export data, never re-analyzed.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, lp := range listed {
		if lp.Standard || lp.DepOnly || lp.Module == nil || len(lp.GoFiles) == 0 {
			continue
		}
		files := lp.GoFiles
		if l.IncludeTests {
			files = append(append([]string(nil), files...), lp.TestGoFiles...)
		}
		pkg, err := l.checkDir(lp.Dir, lp.ImportPath, files, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
		if l.IncludeTests && len(lp.XTestGoFiles) > 0 {
			xpkg, err := l.checkDir(lp.Dir, lp.ImportPath+" [xtest]", lp.XTestGoFiles, pkg.Pkg)
			if err != nil {
				return nil, err
			}
			out = append(out, xpkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadDir type-checks the .go files of a single directory that is not
// necessarily a `go list`-visible package (a testdata fixture, say)
// under the given import path. Imports resolve against the module's
// build graph: the loader asks `go list -export` for whatever the
// fixture imports.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	return l.checkDir(dir, importPath, files, nil)
}

// checkDir parses and type-checks the named files of one directory.
// An external test package passes its package's unit, test files
// included, as self: it imports that unit under its own path, so it
// sees what the package's _test.go files declare, as under `go vet`.
func (l *Loader) checkDir(dir, importPath string, fileNames []string, self *types.Package) (*Package, error) {
	var files []*ast.File
	var imports []string
	for _, name := range fileNames {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			imports = append(imports, strings.Trim(spec.Path.Value, `"`))
		}
	}
	// Fetch export data for any imports not yet covered (fixture
	// directories import packages outside the original pattern set).
	var missing []string
	for _, p := range imports {
		if _, ok := l.exports[p]; !ok {
			missing = append(missing, p)
		}
	}
	if len(missing) > 0 {
		if _, err := l.goList(missing...); err != nil {
			return nil, err
		}
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	imp := l.imp
	if self != nil {
		imp = importerFunc(func(path string) (*types.Package, error) {
			if path == self.Path() {
				return self, nil
			}
			return l.imp.Import(path)
		})
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", importPath, err)
	}
	return &Package{Path: importPath, Fset: l.fset, Files: files, Pkg: pkg, Info: info}, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
