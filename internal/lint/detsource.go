package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetSource flags values that differ between two runs with the same seed.
// Replayability requires every random decision to flow from a config Seed
// through an explicitly threaded *rand.Rand, so the rule reports:
//
//   - rand.Intn(…), rand.Float64(), rand.Shuffle(…), rand.Perm(…), … — the
//     package-level generator, whose state is shared process-wide and cannot
//     be replayed per algorithm run;
//   - rand.New(rand.NewSource(time.Now().UnixNano())) — a generator seeded
//     from the clock produces a different stream every invocation;
//   - a time.Now()/Since/Until or global-rand value stored into a field of a
//     *Result struct (any module type named Result/…Result), even when it is
//     laundered through locals and arithmetic first: two same-seed runs then
//     produce different artifacts — the reproducibility contract the paper's
//     cross-view comparisons rest on (see DESIGN.md).
//
// Constructing generators with rand.New / rand.NewSource / rand.NewZipf from
// a config Seed is the approved pattern, and timing that flows into obs
// recorders, spans, or logs is fine — the sink is specifically the
// clustering result surface.
func DetSource() *Analyzer {
	return &Analyzer{
		Name: "detsource",
		Doc:  "global math/rand, clock-seeded generators, and time.Now/global entropy flowing into a clustering Result",
		Run:  runDetSource,
	}
}

// Constructors are fine: they build an explicit generator instead of using
// the package-level one.
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

const (
	mathRandPath   = "math/rand"
	mathRandV2Path = "math/rand/v2"
)

func runDetSource(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if name, ok := globalRandUse(p, x); ok {
					out = append(out, p.finding("detsource", x.Pos(),
						"global rand.%s uses process-wide RNG state; construct a *rand.Rand from a config Seed and thread it explicitly", name))
				}
			case *ast.CallExpr:
				name, ok := selectorCallAnyPath(p, x, mathRandPath, mathRandV2Path)
				if ok && randConstructors[name] && callsTimeNow(p, x) {
					out = append(out, p.finding("detsource", x.Pos(),
						"rand.%s seeded from time.Now: two identical runs diverge; seed from the algorithm config instead", name))
				}
			case *ast.FuncDecl:
				if x.Body != nil {
					out = append(out, detSourceInFunc(p, x.Body)...)
				}
			}
			return true
		})
	}
	return out
}

// globalRandUse matches rand.X where rand is math/rand (or v2) and X is
// neither a constructor nor a type: referencing rand.Rand / rand.Source is
// exactly how an explicitly threaded generator is declared.
func globalRandUse(p *Package, sel *ast.SelectorExpr) (string, bool) {
	base, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	if path := pkgName(p.Info, base); path != mathRandPath && path != mathRandV2Path {
		return "", false
	}
	if _, isType := p.Info.Uses[sel.Sel].(*types.TypeName); isType || randConstructors[sel.Sel.Name] {
		return "", false
	}
	return sel.Sel.Name, true
}

// callsTimeNow reports whether e contains a time.Now() call.
func callsTimeNow(p *Package, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if name, ok := selectorCall(p.Info, call, "time"); ok && name == "Now" {
				found = true
			}
		}
		return !found
	})
	return found
}

func detSourceInFunc(p *Package, body *ast.BlockStmt) []Finding {
	// Quick syntactic gate before running the taint fixpoint: any entropy call?
	hasSeed := false
	ast.Inspect(body, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && isEntropySeed(p, e) {
			hasSeed = true
		}
		return !hasSeed
	})
	if !hasSeed {
		return nil
	}

	taint := TaintedBy(p, body, func(e ast.Expr) bool { return isEntropySeed(p, e) })

	var out []Finding
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				rt, fieldOK := resultTypeName(p.Info.TypeOf(sel.X))
				if !fieldOK {
					continue
				}
				var rhs ast.Expr
				switch {
				case len(x.Rhs) == len(x.Lhs):
					rhs = x.Rhs[i]
				case len(x.Rhs) == 1:
					rhs = x.Rhs[0]
				}
				if taint.Tainted(rhs) {
					out = append(out, p.finding("detsource", x.Pos(),
						"wall-clock/global entropy flows into %s.%s: same-seed replays diverge; derive the value from the config Seed or record it via obs instead", rt, sel.Sel.Name))
				}
			}
		case *ast.CompositeLit:
			name, ok := resultTypeName(p.Info.TypeOf(x))
			if !ok {
				return true
			}
			for _, elt := range x.Elts {
				val := elt
				where := name
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
					if id, ok := kv.Key.(*ast.Ident); ok {
						where = name + "." + id.Name
					}
				}
				if taint.Tainted(val) {
					out = append(out, p.finding("detsource", val.Pos(),
						"wall-clock/global entropy flows into %s: same-seed replays diverge; derive the value from the config Seed or record it via obs instead", where))
				}
			}
		}
		return true
	})
	return out
}

// isEntropySeed matches the expressions whose value differs between two
// identical runs: time.Now()/Since/Until and global math/rand draws.
func isEntropySeed(p *Package, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	if name, ok := selectorCall(p.Info, call, "time"); ok {
		switch name {
		case "Now", "Since", "Until":
			return true
		}
	}
	if name, ok := selectorCallAnyPath(p, call, mathRandPath, mathRandV2Path); ok {
		return !randConstructors[name]
	}
	return false
}

// resultTypeName reports whether t (or its pointee) is a named struct whose
// name is Result or ends in Result — the shape every clustering algorithm in
// this module returns — and returns its display name.
func resultTypeName(t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj == nil {
		return "", false
	}
	name := obj.Name()
	if name != "Result" && !strings.HasSuffix(name, "Result") {
		return "", false
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return "", false
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + name, true
	}
	return name, true
}
