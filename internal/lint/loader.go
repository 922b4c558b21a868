package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of one module without any tooling
// beyond the standard library. Imports inside the module are resolved against
// the module directory, and everything else (the standard library) goes
// through go/importer's source importer, so no compiled export data is
// required.
//
// go/build picks each package's files for the current platform with cgo
// off, exactly as the go tool would: files excluded by a //go:build
// constraint or a _GOOS/_GOARCH filename suffix are never parsed; loading
// them anyway would type-check code that never builds here (and typically
// fails on missing platform symbols).
//
// Only non-test files are loaded: the determinism invariants the analyzers
// enforce bind library code, while tests legitimately compare floats
// exactly (that is what a replay-determinism test does).
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleDir  string

	std   types.Importer
	cache map[string]*types.Package
}

// NewLoader builds a Loader for the module rooted at dir (the directory
// holding go.mod).
func NewLoader(dir string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModulePath: modPath,
		ModuleDir:  dir,
		std:        importer.ForCompiler(fset, "source", nil),
		cache:      map[string]*types.Package{},
	}, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// Load parses and type-checks the non-test files of the package in dir and
// returns it ready for analysis. dir may be absolute or relative to the
// module root. Packages under testdata get a synthetic import path so they
// never collide with real module packages.
func (l *Loader) Load(dir string) (*Package, error) {
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(l.ModuleDir, dir)
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no Go files build here", dir)
	}
	path := l.importPathFor(dir)
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	if _, ok := l.cache[path]; !ok {
		l.cache[path] = pkg
	}
	return &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: pkg, Info: info}, nil
}

func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "lintfixture/" + filepath.Base(dir)
	}
	if rel == "." {
		return l.ModulePath
	}
	rel = filepath.ToSlash(rel)
	if strings.Contains(rel, "testdata/") || strings.HasPrefix(rel, "testdata") {
		return "lintfixture/" + rel
	}
	return l.ModulePath + "/" + rel
}

// Import implements types.Importer: module-local paths are loaded from
// source under the module root, and everything else is delegated to the
// standard library's source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	if path != l.ModulePath && !strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.std.Import(path)
		if err != nil {
			return nil, err
		}
		l.cache[path] = pkg
		return pkg, nil
	}
	dir := filepath.Join(l.ModuleDir, strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/"))
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, nil)
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}

// parseDir parses the non-test files go/build selects in dir for this
// platform (GoFiles), in name order, so positions and findings are stable
// across runs. A directory with no buildable Go files yields no files.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	ctx := build.Default
	ctx.CgoEnabled = false
	bp, err := ctx.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if err != nil && !errors.As(err, &noGo) {
		return nil, err
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, n := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// PackageDirs walks root and returns every directory containing at least one
// non-test .go file, skipping hidden directories, testdata and vendor trees.
func PackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}
