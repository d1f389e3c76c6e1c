// Package load turns directories of Go source into the type-checked
// packages the redhip-lint analyzers consume. It is the stand-in for
// golang.org/x/tools/go/packages in a build environment that vendors no
// third-party modules: module-local imports are resolved against the
// module root (or against explicit fixture roots), and everything else
// falls back to the standard library's source importer, which
// type-checks GOROOT packages from source — fully offline.
package load

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("redhip/internal/cache", or the fixture
	// path relative to a source root).
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checking problems. Analyzers still run
	// over packages with type errors (fixtures sometimes contain
	// deliberately odd code), but drivers should surface them.
	TypeErrors []error
}

// Config parameterises a load.
type Config struct {
	// ModuleRoot is the directory containing go.mod. Empty means "walk
	// upward from the working directory".
	ModuleRoot string
	// SrcRoots are extra directories under which an import path P
	// resolves to <root>/P — the fixture-corpus convention the
	// analysistest harness uses (testdata/src).
	SrcRoots []string
	// Tags are extra build tags considered satisfied ("redhipassert").
	Tags []string
}

// Loader loads and caches packages for one Config.
type Loader struct {
	cfg     Config
	modPath string
	modRoot string
	fset    *token.FileSet
	tags    map[string]bool
	std     types.Importer
	pkgs    map[string]*loaded // memo by import path
	loading map[string]bool    // import-cycle guard
}

type loaded struct {
	pkg *Package
	err error
}

// NewLoader builds a loader, locating the module root and parsing its
// module path from go.mod.
func NewLoader(cfg Config) (*Loader, error) {
	root := cfg.ModuleRoot
	if root == "" {
		wd, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		root = wd
		for {
			if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
				break
			}
			parent := filepath.Dir(root)
			if parent == root {
				return nil, fmt.Errorf("load: no go.mod found above %s", wd)
			}
			root = parent
		}
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	tags := map[string]bool{"gc": true, runtime.GOOS: true, runtime.GOARCH: true}
	if unixGOOS[runtime.GOOS] {
		// "unix" is a derived tag the toolchain implies for these GOOS
		// values; without it a //go:build !unix file would wrongly load
		// alongside its //go:build unix counterpart.
		tags["unix"] = true
	}
	l := &Loader{
		cfg:     cfg,
		modPath: modPath,
		modRoot: root,
		fset:    fset,
		tags:    tags,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*loaded),
		loading: make(map[string]bool),
	}
	for _, t := range cfg.Tags {
		l.tags[t] = true
	}
	return l, nil
}

// Fset returns the loader's file set (shared with the source importer).
func (l *Loader) Fset() *token.FileSet { return l.fset }

// ModulePath returns the module path from go.mod.
func (l *Loader) ModulePath() string { return l.modPath }

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("load: no module directive in %s", gomod)
}

// Patterns expands command-line package patterns into loaded packages.
// Supported: "./..." (every package under the module root), "./dir" and
// "dir" (one directory), and fully qualified module import paths.
func (l *Loader) Patterns(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			subdirs, err := l.walkPackageDirs(l.modRoot)
			if err != nil {
				return nil, err
			}
			for _, d := range subdirs {
				add(d)
			}
		case strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(pat, "/...")
			base = strings.TrimPrefix(base, "./")
			subdirs, err := l.walkPackageDirs(filepath.Join(l.modRoot, base))
			if err != nil {
				return nil, err
			}
			for _, d := range subdirs {
				add(d)
			}
		case strings.HasPrefix(pat, l.modPath):
			add(filepath.Join(l.modRoot, strings.TrimPrefix(strings.TrimPrefix(pat, l.modPath), "/")))
		default:
			add(filepath.Join(l.modRoot, strings.TrimPrefix(pat, "./")))
		}
	}
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.Dir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	return out, nil
}

// walkPackageDirs lists every directory under root holding at least one
// buildable non-test .go file, skipping testdata, VCS and hidden dirs.
func (l *Loader) walkPackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := l.sourceFiles(path)
		if err != nil {
			return err
		}
		if len(files) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// Dir loads the package in one directory (nil when the directory holds
// no buildable Go files). Results are memoised by import path.
func (l *Loader) Dir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := l.importPathFor(abs)
	pkg, err := l.load(path, abs)
	if err != nil {
		return nil, err
	}
	return pkg, nil
}

// importPathFor derives the import path of a directory: relative to the
// module root it is modPath/rel; relative to a source root it is the
// bare relative path (the fixture convention).
func (l *Loader) importPathFor(dir string) string {
	for _, root := range l.cfg.SrcRoots {
		if abs, err := filepath.Abs(root); err == nil {
			if rel, err := filepath.Rel(abs, dir); err == nil && !strings.HasPrefix(rel, "..") {
				return filepath.ToSlash(rel)
			}
		}
	}
	if rel, err := filepath.Rel(l.modRoot, dir); err == nil && !strings.HasPrefix(rel, "..") {
		if rel == "." {
			return l.modPath
		}
		return l.modPath + "/" + filepath.ToSlash(rel)
	}
	return filepath.ToSlash(dir)
}

// sourceFiles lists dir's non-test .go files that satisfy the build
// constraints.
func (l *Loader) sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		path := filepath.Join(dir, name)
		ok, err := l.buildable(path)
		if err != nil {
			return nil, err
		}
		if ok {
			files = append(files, path)
		}
	}
	sort.Strings(files)
	return files, nil
}

// buildable evaluates a file's //go:build constraint (and GOOS/GOARCH
// filename suffixes) against the loader's tag set.
func (l *Loader) buildable(path string) (bool, error) {
	if !goosGoarchMatch(filepath.Base(path)) {
		return false, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	// Constraints must appear before the package clause; scanning the
	// leading lines is enough.
	for _, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "package ") {
			break
		}
		if !constraint.IsGoBuild(trimmed) {
			continue
		}
		expr, err := constraint.Parse(trimmed)
		if err != nil {
			return false, fmt.Errorf("load: %s: %v", path, err)
		}
		return expr.Eval(func(tag string) bool {
			if ok, isRelease := releaseTag(tag); isRelease {
				return ok
			}
			return l.tags[tag]
		}), nil
	}
	return true, nil
}

// unixGOOS lists the GOOS values for which the toolchain implies the
// derived "unix" build tag.
var unixGOOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "hurd": true, "illumos": true, "ios": true,
	"linux": true, "netbsd": true, "openbsd": true, "solaris": true,
}

// goosGoarchMatch rejects files with a foreign _GOOS/_GOARCH suffix.
// The repository has none; the check exists so fixture corpora cannot
// accidentally leak platform-specific files into a run.
func goosGoarchMatch(name string) bool {
	name = strings.TrimSuffix(name, ".go")
	for _, os := range []string{"windows", "darwin", "js", "wasip1", "plan9", "aix", "android", "ios", "solaris", "illumos", "dragonfly", "freebsd", "netbsd", "openbsd"} {
		if os != runtime.GOOS && strings.HasSuffix(name, "_"+os) {
			return false
		}
	}
	for _, arch := range []string{"386", "arm", "arm64", "mips", "mips64", "ppc64", "ppc64le", "riscv64", "s390x", "wasm", "loong64"} {
		if arch != runtime.GOARCH && strings.HasSuffix(name, "_"+arch) {
			return false
		}
	}
	return true
}

// releaseTag evaluates go1.N build tags: go1.N is satisfied when the
// toolchain is at least 1.N.
func releaseTag(tag string) (ok, isRelease bool) {
	if !strings.HasPrefix(tag, "go1.") {
		return false, false
	}
	var minor int
	if _, err := fmt.Sscanf(tag, "go1.%d", &minor); err != nil {
		return false, false
	}
	var current int
	v := runtime.Version() // "go1.24.0" or a devel string
	if _, err := fmt.Sscanf(v, "go1.%d", &current); err != nil {
		return true, true // devel toolchains satisfy all release tags
	}
	return current >= minor, true
}

// load parses and type-checks the package in dir under import path
// path, resolving its imports recursively.
func (l *Loader) load(path, dir string) (*Package, error) {
	if m, ok := l.pkgs[path]; ok {
		return m.pkg, m.err
	}
	if l.loading[path] {
		return nil, fmt.Errorf("load: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	pkg, err := l.loadUncached(path, dir)
	l.pkgs[path] = &loaded{pkg: pkg, err: err}
	return pkg, err
}

func (l *Loader) loadUncached(path, dir string) (*Package, error) {
	files, err := l.sourceFiles(dir)
	if err != nil {
		return nil, fmt.Errorf("load: %q: %v", path, err)
	}
	if len(files) == 0 {
		return nil, nil
	}
	var asts []*ast.File
	for _, f := range files {
		file, err := parser.ParseFile(l.fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: %v", err)
		}
		asts = append(asts, file)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(l.importFor),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, _ := conf.Check(path, l.fset, asts, info) // errors collected above
	return &Package{
		Path:       path,
		Dir:        dir,
		Files:      asts,
		Types:      tpkg,
		Info:       info,
		TypeErrors: typeErrs,
	}, nil
}

// importFor resolves one import path: module-local paths against the
// module root, fixture paths against the source roots, and everything
// else through the standard library's source importer.
func (l *Loader) importFor(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		dir := filepath.Join(l.modRoot, strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/"))
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("load: no Go files in %q", path)
		}
		return pkg.Types, nil
	}
	for _, root := range l.cfg.SrcRoots {
		dir := filepath.Join(root, filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			pkg, err := l.load(path, dir)
			if err != nil {
				return nil, err
			}
			if pkg != nil {
				return pkg.Types, nil
			}
		}
	}
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
