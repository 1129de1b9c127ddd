package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	// Path is the import path (module path + relative directory).
	Path string
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// Files are the parsed non-test Go files, with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info carries the type-checker facts for Files.
	Info *types.Info
}

// Target is a fully loaded module: every package parsed and
// type-checked, ready for the analyzers.
type Target struct {
	// Module is the module path from go.mod.
	Module string
	// Fset positions every file of every package (and the stdlib
	// declarations pulled in during type-checking).
	Fset *token.FileSet
	// Packages is in dependency order: a package appears after all the
	// module packages it imports.
	Packages []*Package

	byPath map[string]*Package
	// facts memoizes whole-target analysis results shared between
	// analyzers (see Fact).
	facts facts
}

// PackageByPath returns the loaded package with the given import path.
func (t *Target) PackageByPath(path string) *Package { return t.byPath[path] }

// Load parses and type-checks every non-test package of the module
// rooted at root, plus the packages found in extraDirs (absolute or
// root-relative directories, e.g. lint fixtures under a testdata tree
// that the main walk skips). Only the standard library may be imported
// besides the module's own packages.
func Load(root string, extraDirs ...string) (*Target, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(absRoot)
	if err != nil {
		return nil, err
	}

	dirs, err := packageDirs(absRoot)
	if err != nil {
		return nil, err
	}
	for _, d := range extraDirs {
		if !filepath.IsAbs(d) {
			d = filepath.Join(absRoot, d)
		}
		dirs = append(dirs, filepath.Clean(d))
	}

	fset := token.NewFileSet()
	imp := &moduleImporter{
		target: &Target{Module: module, Fset: fset, byPath: make(map[string]*Package)},
		std:    newStdImporter(fset),
		parsed: make(map[string]*parsedPkg),
	}
	var order []string
	for _, dir := range dirs {
		path := importPathFor(module, absRoot, dir)
		if _, ok := imp.parsed[path]; ok {
			continue
		}
		files, err := parseDir(fset, dir)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			continue
		}
		pp := &parsedPkg{dir: dir, files: files}
		for _, f := range files {
			for _, spec := range f.Imports {
				if p, err := strconv.Unquote(spec.Path.Value); err == nil && imp.inModule(p) {
					pp.deps = append(pp.deps, p)
				}
			}
		}
		sort.Strings(pp.deps)
		imp.parsed[path] = pp
		order = append(order, path)
	}
	sort.Strings(order)
	for _, path := range order {
		if _, err := imp.Import(path); err != nil {
			return nil, err
		}
	}
	return imp.target, nil
}

// modulePath reads the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %s is not a module root: %v", root, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// importPathFor maps a directory inside the module to its import path.
func importPathFor(module, root, dir string) string {
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == "." {
		return module
	}
	return module + "/" + filepath.ToSlash(rel)
}

// packageDirs walks the module collecting every directory holding
// non-test Go files, skipping testdata, vendor, hidden and underscore
// directories (mirroring the go tool's rules).
func packageDirs(root string) ([]string, error) {
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
			if !e.IsDir() && isLintedGoFile(e.Name()) {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

// isLintedGoFile reports whether name is a Go source file the linter
// analyzes. Test files are excluded: the invariants guard the runtime
// packet path, and tests legitimately use wall-clock waits, literals
// and panics.
func isLintedGoFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// parseDir parses the non-test Go files of one directory that the
// host's build compiles: a package's per-GOOS files declare the same
// names, one set per platform.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !isLintedGoFile(e.Name()) {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// parsedPkg is one module package's parsed files, awaiting its
// type-check.
type parsedPkg struct {
	dir      string
	files    []*ast.File
	deps     []string // module import paths, sorted
	checking bool
}

// moduleImporter resolves imports during type-checking: a module path
// is type-checked on first import (its own module imports first, in
// sorted order, so Target.Packages comes out in one stable dependency
// order), everything else must be standard library.
type moduleImporter struct {
	target *Target
	std    *stdImporter
	parsed map[string]*parsedPkg
}

func (im *moduleImporter) inModule(path string) bool {
	return path == im.target.Module || strings.HasPrefix(path, im.target.Module+"/")
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if !im.inModule(path) {
		return im.std.Import(path)
	}
	if p := im.target.byPath[path]; p != nil {
		return p.Pkg, nil
	}
	pp := im.parsed[path]
	if pp.checking {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	pp.checking = true
	for _, dep := range pp.deps {
		if im.parsed[dep] == nil {
			return nil, fmt.Errorf("lint: %s imports %s, which was not found in the module", path, dep)
		}
		if _, err := im.Import(dep); err != nil {
			return nil, err
		}
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: im,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, err := conf.Check(path, im.target.Fset, pp.files, info)
	if len(typeErrs) > 0 {
		err = typeErrs[0]
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}
	lp := &Package{Path: path, Dir: pp.dir, Files: pp.files, Pkg: pkg, Info: info}
	im.target.Packages = append(im.target.Packages, lp)
	im.target.byPath[path] = lp
	return pkg, nil
}

// stdImporter type-checks standard-library packages from $GOROOT/src at
// API level only (function bodies ignored): fast, offline, and free of
// any dependency beyond the standard library itself. Cgo is disabled so
// build-constraint evaluation selects the pure-Go declarations.
type stdImporter struct {
	fset  *token.FileSet
	ctx   build.Context
	cache map[string]*types.Package
}

func newStdImporter(fset *token.FileSet) *stdImporter {
	ctx := build.Default
	ctx.CgoEnabled = false
	return &stdImporter{fset: fset, ctx: ctx, cache: make(map[string]*types.Package)}
}

func (im *stdImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := im.cache[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle in stdlib package %s", path)
		}
		return p, nil
	}
	dir, err := im.dirOf(path)
	if err != nil {
		return nil, err
	}
	bp, err := im.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("stdlib %s: %v", path, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	im.cache[path] = nil // cycle guard while checking
	conf := types.Config{
		Importer:                 im,
		IgnoreFuncBodies:         true,
		FakeImportC:              true,
		DisableUnusedImportCheck: true,
	}
	pkg, err := conf.Check(path, im.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("stdlib %s: %v", path, err)
	}
	im.cache[path] = pkg
	return pkg, nil
}

// dirOf locates a stdlib (or stdlib-vendored) package's source.
func (im *stdImporter) dirOf(path string) (string, error) {
	src := filepath.Join(runtime.GOROOT(), "src")
	for _, dir := range []string{
		filepath.Join(src, filepath.FromSlash(path)),
		filepath.Join(src, "vendor", filepath.FromSlash(path)),
	} {
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("package %s not found in GOROOT (only stdlib imports are allowed)", path)
}
