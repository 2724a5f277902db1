package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"strings"
)

// A Loader parses and type-checks a source tree. It is the one way the
// lint tools load code: cmd/simlint and statefp load the module, and
// analysistest loads fixtures under testdata/src with no module prefix.
//
// An import path is in-tree when it carries the module prefix (with no
// prefix: when root holds a directory of that name); its directory is
// the path with the prefix stripped. Every other import is the standard
// library, type-checked from GOROOT source, so no build cache or export
// data is involved.
type Loader struct {
	fset   *token.FileSet
	root   string
	module string
	std    types.Importer
	pkgs   map[string]*Package
}

// NewLoader returns a loader for the tree at root whose import paths
// start with module ("" for a tree of bare import paths).
func NewLoader(root, module string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset:   fset,
		root:   root,
		module: module,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   map[string]*Package{},
	}
}

// ModulePath reads the module line out of root's go.mod.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("%w (root must be a module directory)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module line in %s", filepath.Join(root, "go.mod"))
}

// NewInfo returns a types.Info that records everything the analyzers
// read.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// InTree reports whether path names a package of the loaded tree
// rather than of the standard library.
func (l *Loader) InTree(path string) bool {
	if l.module != "" {
		return path == l.module || strings.HasPrefix(path, l.module+"/")
	}
	fi, err := os.Stat(l.dir(path))
	return err == nil && fi.IsDir()
}

func (l *Loader) dir(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if !l.InTree(path) {
		return l.std.Import(path)
	}
	pkg, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Pkg, nil
}

// Load parses and type-checks the in-tree package path, once.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir := l.dir(path)
	names, err := goFiles(dir)
	if err != nil {
		return nil, fmt.Errorf("import %q: %w", path, err)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("import %q: no Go files in %s", path, dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %q: %w", path, err)
	}
	pkg := &Package{Fset: l.fset, Files: files, Pkg: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// LoadAll loads every package of the tree, in walk order.
func (l *Loader) LoadAll() ([]*Package, error) {
	dirs, err := walkTree(l.root)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, d := range dirs {
		pkg, err := l.Load(path.Join(l.module, d.rel))
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// A pkgDir is one package directory found by walkTree.
type pkgDir struct {
	rel   string   // slash-separated, relative to the walk root
	files []string // as goFiles selects them
}

// walkTree finds the package directories under root the way `./...`
// does: testdata, vendor, hidden and _-prefixed directories are
// skipped, and so are nested modules (directories with their own
// go.mod).
func walkTree(root string) ([]pkgDir, error) {
	var out []pkgDir
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root {
			name := d.Name()
			if name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		files, err := goFiles(p)
		if err != nil || len(files) == 0 {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		out = append(out, pkgDir{rel: filepath.ToSlash(rel), files: files})
		return nil
	})
	return out, err
}

// goFiles lists the non-test Go files in dir that build constraints
// select for the host platform.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, name)
		}
	}
	return out, nil
}
