package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// This file adds the _test.go loading pass. Test files are excluded
// from the production rule set (the invariants guard the runtime packet
// path, and tests legitimately sleep, panic and format), but one rule
// still pays for itself there: errcheck on test *helpers*, because a
// helper that drops an error hides real failures from every test that
// calls it. Test function bodies themselves
// (Test*/Benchmark*/Example*/Fuzz*) stay exempt from errcheck — a test
// discards errors on purpose when provoking failures.

// TestFileAnalyzers returns the relaxed rule set for _test.go files:
// errcheck-lite on test helpers in the packages the production
// errcheck covers.
func TestFileAnalyzers() []Analyzer {
	return []Analyzer{
		&ErrCheck{
			Scope:         PathScope("kalis/internal/core", "kalis/internal/proto"),
			SkipTestFuncs: true,
		},
	}
}

// LoadTests parses and type-checks every _test.go file of the module
// rooted at root, on top of a regular Load of the non-test packages.
// The returned target holds one package per test group: in-package test
// files are type-checked merged with their package's non-test files
// (they reference unexported identifiers) but only the test files
// appear in Package.Files, so analyzers report findings in test code
// only; external test packages (package foo_test) are checked
// separately under the import path <pkg>_test.
func LoadTests(root string) (*Target, error) {
	base, err := Load(root)
	if err != nil {
		return nil, err
	}
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}

	byDir := make(map[string]*Package, len(base.Packages))
	for _, p := range base.Packages {
		byDir[p.Dir] = p
	}

	dirs, err := testFileDirs(absRoot)
	if err != nil {
		return nil, err
	}

	t := &Target{Module: base.Module, Fset: base.Fset, byPath: make(map[string]*Package), std: base.std}
	imp := &moduleImporter{target: base, std: base.std}
	for _, dir := range dirs {
		path := importPathFor(base.Module, absRoot, dir)
		inPkg, external, err := parseTestFiles(base.Fset, dir)
		if err != nil {
			return nil, err
		}
		if len(inPkg) > 0 {
			files := inPkg
			if bp := byDir[dir]; bp != nil {
				files = append(append([]*ast.File(nil), bp.Files...), inPkg...)
			}
			pkg, info, err := checkFiles(imp, base.Fset, path, files)
			if err != nil {
				return nil, err
			}
			lp := &Package{Path: path, Dir: dir, Files: inPkg, Pkg: pkg, Info: info}
			t.Packages = append(t.Packages, lp)
			t.byPath[path] = lp
		}
		if len(external) > 0 {
			extPath := path + "_test"
			pkg, info, err := checkFiles(imp, base.Fset, extPath, external)
			if err != nil {
				return nil, err
			}
			lp := &Package{Path: extPath, Dir: dir, Files: external, Pkg: pkg, Info: info}
			t.Packages = append(t.Packages, lp)
			t.byPath[extPath] = lp
		}
	}
	return t, nil
}

// checkFiles type-checks one file set with a fresh Info.
func checkFiles(imp types.Importer, fset *token.FileSet, path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, err := conf.Check(path, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, nil, fmt.Errorf("lint: type-checking %s: %v", path, typeErrs[0])
	}
	if err != nil {
		return nil, nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}
	return pkg, info, nil
}

// parseTestFiles parses a directory's _test.go files, split into the
// in-package group and the external (package foo_test) group.
func parseTestFiles(fset *token.FileSet, dir string) (inPkg, external []*ast.File, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			external = append(external, f)
		} else {
			inPkg = append(inPkg, f)
		}
	}
	return inPkg, external, nil
}

// testFileDirs walks the module collecting every directory holding
// _test.go files, with the same skip rules as packageDirs.
func testFileDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, "_test.go") &&
				!strings.HasPrefix(n, ".") && !strings.HasPrefix(n, "_") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

// isTestEntry reports whether the declaration is a go test entry point
// (Test*/Benchmark*/Example*/Fuzz* without a receiver) — the functions
// the relaxed errcheck rule exempts.
func isTestEntry(fd *ast.FuncDecl) bool {
	if fd.Recv != nil {
		return false
	}
	name := fd.Name.Name
	for _, pre := range []string{"Test", "Benchmark", "Example", "Fuzz"} {
		if strings.HasPrefix(name, pre) {
			return true
		}
	}
	return false
}
