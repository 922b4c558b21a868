package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// typecheckSrc parses and type-checks one synthetic file, returning a
// Package the engine can run on.
func typecheckSrc(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "flow.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("flowtest", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return &Package{Path: "flowtest", Fset: fset, Files: []*ast.File{f}, Types: pkg, Info: info}
}

func funcDecl(t *testing.T, p *Package, name string) *ast.FuncDecl {
	t.Helper()
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == name {
				return fn
			}
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

// Taint must follow a value laundered through intermediate locals, and must
// not leak onto untainted variables.
func TestTaintFixpointThroughLocals(t *testing.T) {
	p := typecheckSrc(t, `package p
import "time"
func f() (int64, int64) {
	t0 := time.Now()
	n := t0.UnixNano()
	m := n + 1
	clean := int64(42)
	return m, clean
}`)
	fn := funcDecl(t, p, "f")
	isTimeNow := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		name, ok := selectorCall(p.Info, call, "time")
		return ok && name == "Now"
	}
	taint := TaintedBy(p, fn.Body, isTimeNow)
	want := map[string]bool{"t0": true, "n": true, "m": true, "clean": false}
	for id, obj := range p.Info.Defs {
		if exp, tracked := want[id.Name]; tracked && taint.Objs[obj] != exp {
			t.Errorf("taint of %s = %v, want %v", id.Name, taint.Objs[obj], exp)
		}
	}
	if len(taint.Objs) != 3 {
		t.Errorf("tainted %d variables, want 3 (t0, n, m)", len(taint.Objs))
	}
}

// The CFG builder must at least not choke on every function shape in the
// real repository packages it will analyze (smoke coverage for odd shapes:
// closures, methods, generics in parallel, select in ops).
func TestBuildCFGSmokesOverRealPackages(t *testing.T) {
	for _, dir := range []string{"internal/parallel", "internal/ops", "internal/kmeans"} {
		pkg, err := loaderForTest(t).Load(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		count := 0
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
					cfg := BuildCFG(fn.Body)
					if cfg.Entry == nil || cfg.Exit == nil {
						t.Errorf("%s: nil entry/exit in %s", dir, fn.Name.Name)
					}
					count++
				}
			}
		}
		if count == 0 {
			t.Errorf("%s: no functions analyzed", dir)
		}
	}
}

// Dump determinism: two builds of the same function render identically (the
// golden tests depend on it).
func TestCFGDumpDeterministic(t *testing.T) {
	src := `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		switch {
		case i%2 == 0:
			s += i
		default:
			s -= i
		}
	}
	return s
}`
	p := typecheckSrc(t, src)
	fn := funcDecl(t, p, "f")
	a := BuildCFG(fn.Body).Dump(p.Fset)
	b := BuildCFG(fn.Body).Dump(p.Fset)
	if a != b || !strings.Contains(a, "switch.case") {
		t.Errorf("nondeterministic or malformed dump:\n%s\nvs\n%s", a, b)
	}
}
