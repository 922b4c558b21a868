package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"multiclust/internal/lint"
)

// testOnlyExportsAllowed lists the exported package-level identifiers of
// internal/ packages that no non-test code references, each with the
// reason it stays. TestNoTestOnlyExports fails on any other such
// identifier, and on an entry here that non-test code does reference.
var testOnlyExportsAllowed = map[string]string{
	"internal/em.BIC":                     "ROADMAP item 6's view-independence test is its next consumer",
	"internal/jobs/chaos.StreamFaults":    "test seam: the streaming fault battery the job engine's chaos suite mounts",
	"internal/obs.HistogramBounds":        "TestHistogramBucketWalk reads the production bucket bounds through it from package obs_test",
	"internal/obs.StartRuntimePollerTick": "test seam: runs the runtime poller on a short tick",
	"internal/obs.ValidateLogLine":        "make logs-check validates production log lines with it",
	"internal/stats.DiagGaussianLogPDF":   "reference: TestEStepEqualsReference and CAMI's E-step oracle pin stats.DiagMixture to it",
	"internal/taxonomy.Lookup":            "TestTaxonomyLinks and TestTaxonomyMatchesTutorialClaims check the production tables through it",
}

// TestNoTestOnlyExports keeps helpers that only tests call from coming
// back. It type-checks every package of the repository (the facade, serve,
// cmd/, examples/ and e2ebench/) without test files and reports each
// exported package-level identifier of an internal/ package that none of
// them references outside the identifier's own declaration; a type's
// declaration includes its methods. Methods are not checked: interface
// implementations make them noisy. Packages that only _test.go files
// import (such as internal/stream/streamtest) are skipped.
func TestNoTestOnlyExports(t *testing.T) {
	start := time.Now()
	dead, err := testOnlyExports(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, d := range dead {
		found[d.name] = true
		if _, ok := testOnlyExportsAllowed[d.name]; !ok {
			t.Errorf("%s: %s is exported but only tests reference it: delete it, or allowlist it with its reason", d.pos, d.name)
		}
	}
	var stale []string
	for name := range testOnlyExportsAllowed {
		if !found[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("allowlisted %s is gone or referenced by non-test code: drop its entry", name)
	}
	t.Logf("scanned the repository in %v", time.Since(start).Round(time.Millisecond))
}

type testOnlyExport struct {
	name string // module-relative, e.g. internal/em.BIC
	pos  token.Position
}

// span is a byte range of one file.
type span struct {
	file       string
	start, end int
}

func (s span) holds(p token.Position) bool {
	return p.Filename == s.file && p.Offset >= s.start && p.Offset < s.end
}

// testOnlyExports loads every package under root without its tests and
// returns the exported package-level identifiers of internal/ packages
// that no loaded file references outside their own declarations, sorted
// by name.
func testOnlyExports(root string) ([]testOnlyExport, error) {
	l, err := lint.NewLoader(root)
	if err != nil {
		return nil, err
	}
	dirs, err := lint.PackageDirs(root)
	if err != nil {
		return nil, err
	}
	prefix := l.ModulePath + "/"
	type decl struct {
		pos   token.Position
		spans []span
	}
	decls := map[string]*decl{} // module-relative name -> declaration
	declOf := func(name string) *decl {
		if decls[name] == nil {
			decls[name] = &decl{}
		}
		return decls[name]
	}
	uses := map[string][]token.Position{}
	imported := map[string]bool{} // module-relative paths some package imports
	for _, dir := range dirs {
		pkg, err := l.Load(dir)
		if err != nil {
			return nil, err
		}
		rel := strings.TrimPrefix(pkg.Path, prefix)
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				if p, err := strconv.Unquote(imp.Path.Value); err == nil && p != pkg.Path {
					imported[strings.TrimPrefix(p, prefix)] = true
				}
			}
		}
		for id, obj := range pkg.Info.Uses {
			if name, ok := packageLevelName(obj, prefix); ok {
				uses[name] = append(uses[name], l.Fset.Position(id.Pos()))
			}
		}
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		spanOf := func(n ast.Node) span {
			s, e := l.Fset.Position(n.Pos()), l.Fset.Position(n.End())
			return span{s.Filename, s.Offset, e.Offset}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						if d.Name.IsExported() {
							dd := declOf(rel + "." + d.Name.Name)
							dd.pos, dd.spans = l.Fset.Position(d.Name.Pos()), append(dd.spans, spanOf(d))
						}
						continue
					}
					// A method belongs to its receiver type's declaration.
					if recv := receiverName(d.Recv.List[0].Type); ast.IsExported(recv) {
						dd := declOf(rel + "." + recv)
						dd.spans = append(dd.spans, spanOf(d))
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								dd := declOf(rel + "." + s.Name.Name)
								dd.pos, dd.spans = l.Fset.Position(s.Name.Pos()), append(dd.spans, spanOf(s))
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									dd := declOf(rel + "." + n.Name)
									dd.pos, dd.spans = l.Fset.Position(n.Pos()), append(dd.spans, spanOf(s))
								}
							}
						}
					}
				}
			}
		}
	}
	var out []testOnlyExport
	for name, d := range decls {
		if !imported[name[:strings.LastIndex(name, ".")]] {
			continue
		}
		if !usedOutside(uses[name], d.spans) {
			out = append(out, testOnlyExport{name: name, pos: d.pos})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// usedOutside reports whether any use lies outside every declaration span.
func usedOutside(uses []token.Position, spans []span) bool {
	for _, u := range uses {
		inside := false
		for _, s := range spans {
			if s.holds(u) {
				inside = true
				break
			}
		}
		if !inside {
			return true
		}
	}
	return false
}

// packageLevelName returns the module-relative name of a package-level
// object of the module. Packages are matched by path and objects by name,
// because a package the loader type-checks both as an import and on its
// own has two sets of objects.
func packageLevelName(obj types.Object, prefix string) (string, bool) {
	if f, ok := obj.(*types.Func); ok {
		obj = f.Origin()
	}
	if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	path := obj.Pkg().Path()
	if !strings.HasPrefix(path, prefix) {
		return "", false
	}
	return strings.TrimPrefix(path, prefix) + "." + obj.Name(), true
}

// receiverName is the type name of a method receiver expression.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
