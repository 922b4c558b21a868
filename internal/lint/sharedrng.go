package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SharedRNG flags a *rand.Rand that more than one worker of the
// internal/parallel helpers (For, Each, Map) can reach. Worker
// goroutines sharing one generator is both a data race (*rand.Rand is not
// safe for concurrent use) and nondeterministic (the interleaving decides
// who draws which variate). A worker closure is flagged when it
//
//   - captures a *rand.Rand variable, reaches a *rand.Rand field through a
//     captured variable, or calls a method on a captured value whose type
//     holds one (the method draws from the shared generator on the
//     workers' behalf);
//   - stores a *rand.Rand into a struct field, sends one on a channel, or
//     returns one (the generator escapes the worker; parallel.Map collecting
//     generators publishes per-worker state);
//
// and so is a *rand.Rand stored into a field of a struct the workers touch,
// or sent on a channel they read, outside the workers — which also catches
// a worker that only reaches the generator through a helper it passes the
// struct to. The approved pattern — used by the k-means restart fan-out —
// derives an independent generator per task from the config seed:
// rand.New(rand.NewSource(cfg.Seed + int64(task))).
func SharedRNG() *Analyzer {
	return &Analyzer{
		Name: "sharedrng",
		Doc:  "*rand.Rand shared by, or escaping, the closures passed to parallel.For/Each/Map",
		Run:  runSharedRNG,
	}
}

var parallelEntryPoints = map[string]bool{
	"For":  true,
	"Each": true,
	"Map":  true,
}

func runSharedRNG(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			out = append(out, sharedRNGIn(p, decl)...)
		}
	}
	return out
}

// worker is one closure handed to a parallel entry point.
type worker struct {
	lit *ast.FuncLit
	fn  string // For / Each / Map
}

// sharedRNGIn checks one top-level declaration: its worker closures are
// collected once, then the escape checks walk the declaration and the
// capture checks each closure. A line both checks flag is reported once.
func sharedRNGIn(p *Package, decl ast.Decl) []Finding {
	workers := parallelClosures(p, decl)
	if len(workers) == 0 {
		return nil
	}
	found := rngEscapes(p, decl, workers)
	for _, w := range workers {
		found = append(found, capturedRands(p, w)...)
	}
	var out []Finding
	lines := map[int]bool{}
	for _, f := range found {
		if !lines[f.Pos.Line] {
			lines[f.Pos.Line] = true
			out = append(out, f)
		}
	}
	return out
}

// parallelClosures collects every FuncLit passed directly to a
// parallel.For/Each/Map call under root.
func parallelClosures(p *Package, root ast.Node) []worker {
	var out []worker
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := parallelCall(p, call)
		if !ok || !parallelEntryPoints[name] {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				out = append(out, worker{lit: lit, fn: name})
			}
		}
		return true
	})
	return out
}

// parallelCall matches pkg.Fn(...) where pkg is an import whose path ends in
// internal/parallel (suffix match so fixtures under a synthetic module path
// exercise the real rule).
func parallelCall(p *Package, call *ast.CallExpr) (string, bool) {
	fun := call.Fun
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	base, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	path := pkgName(p.Info, base)
	if path != "internal/parallel" && !strings.HasSuffix(path, "/internal/parallel") {
		return "", false
	}
	return sel.Sel.Name, true
}

// rngEscapes reports a *rand.Rand crossing a worker boundary under root:
// stored into a field or sent on a channel from inside a worker or into
// state the workers touch, or returned by a worker.
func rngEscapes(p *Package, root ast.Node, workers []worker) []Finding {
	// inside reports which worker closure (if any) contains n.
	inside := func(n ast.Node) (string, bool) {
		for _, w := range workers {
			if insideNode(w.lit, n) {
				return w.fn, true
			}
		}
		return "", false
	}
	// sharedWithWorkers reports whether the container expression's root
	// variable is touched inside any worker closure.
	sharedWithWorkers := func(container ast.Expr) (string, bool) {
		root := rootIdent(container)
		if root == nil {
			return "", false
		}
		obj := objectOf(p.Info, root)
		if obj == nil {
			return "", false
		}
		for _, w := range workers {
			if mentionsObject(p.Info, w.lit.Body, obj) {
				return w.fn, true
			}
		}
		return "", false
	}
	isRand := func(e ast.Expr) bool {
		t := p.Info.TypeOf(e)
		return t != nil && isRandRand(t)
	}

	var out []Finding
	ast.Inspect(root, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || i >= len(x.Rhs) && len(x.Rhs) != 1 {
					continue
				}
				rhs := x.Rhs[0]
				if len(x.Rhs) == len(x.Lhs) {
					rhs = x.Rhs[i]
				}
				if !isRand(rhs) {
					continue
				}
				if fn, ok := inside(x); ok {
					out = append(out, p.finding("sharedrng", x.Pos(),
						"*rand.Rand stored into field %s from inside a parallel.%s worker: the generator escapes the worker; keep per-task generators local", fieldName(sel), fn))
				} else if fn, ok := sharedWithWorkers(sel.X); ok {
					out = append(out, p.finding("sharedrng", x.Pos(),
						"*rand.Rand stored into field %s of a struct the parallel.%s workers touch: workers share the generator through the field; derive one generator per task from the config seed", fieldName(sel), fn))
				}
			}
		case *ast.SendStmt:
			if !isRand(x.Value) {
				return true
			}
			if fn, ok := inside(x); ok {
				out = append(out, p.finding("sharedrng", x.Pos(),
					"*rand.Rand sent on a channel from inside a parallel.%s worker: the generator hops goroutines mid-stream; keep per-task generators local", fn))
			} else if fn, ok := sharedWithWorkers(x.Chan); ok {
				out = append(out, p.finding("sharedrng", x.Pos(),
					"*rand.Rand sent on a channel the parallel.%s workers read: the generator crosses the worker boundary; derive one generator per task from the config seed", fn))
			}
		case *ast.ReturnStmt:
			fn, ok := inside(x)
			if !ok {
				return true
			}
			for _, r := range x.Results {
				if isRand(r) {
					out = append(out, p.finding("sharedrng", r.Pos(),
						"parallel.%s worker returns its *rand.Rand: per-worker generator state is published across the boundary; return drawn values, not the generator", fn))
				}
			}
		}
		return true
	})
	return out
}

func fieldName(sel *ast.SelectorExpr) string {
	if root := rootIdent(sel.X); root != nil {
		return root.Name + "." + sel.Sel.Name
	}
	return sel.Sel.Name
}

// capturedRands reports each distinct shared generator that the worker uses
// but does not declare: a captured *rand.Rand variable, a *rand.Rand struct
// field reached through a captured variable, or a method invoked on a
// captured value whose type holds a *rand.Rand field (the method draws from
// the shared generator on the workers' behalf).
func capturedRands(p *Package, w worker) []Finding {
	var out []Finding
	seenObj := map[types.Object]bool{}
	seenSel := map[string]bool{}
	ast.Inspect(w.lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			obj := objectOf(p.Info, x)
			if obj == nil || seenObj[obj] || !isVar(obj) || !isRandRand(obj.Type()) {
				return true
			}
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				return true // reported by the selector case with field wording
			}
			if !declaredOutside(p.Info, x, w.lit) {
				return true
			}
			seenObj[obj] = true
			out = append(out, p.finding("sharedrng", x.Pos(),
				"*rand.Rand %q is shared across parallel.%s workers: data race and nondeterministic draws; derive one generator per task from the config seed", x.Name, w.fn))
		case *ast.SelectorExpr:
			// s.rng where s is captured: the field is one generator shared
			// by every worker even though no *rand.Rand variable is captured.
			t := p.Info.TypeOf(x)
			if t == nil || !isRandRand(t) {
				return true
			}
			root := rootIdent(x.X)
			if root == nil || !isCapturedVar(p, root, w.lit) {
				return true
			}
			key := root.Name + "." + x.Sel.Name
			if seenSel[key] {
				return true
			}
			seenSel[key] = true
			out = append(out, p.finding("sharedrng", x.Pos(),
				"*rand.Rand field %q is shared across parallel.%s workers: data race and nondeterministic draws; derive one generator per task from the config seed", key, w.fn))
		case *ast.CallExpr:
			// s.Draw() where s is captured and s's type holds a *rand.Rand
			// field: the method draws from the shared generator.
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recvT := p.Info.TypeOf(sel.X)
			if recvT == nil || isRandRand(recvT) || !structHasRand(recvT) {
				return true
			}
			root := rootIdent(sel.X)
			if root == nil || !isCapturedVar(p, root, w.lit) {
				return true
			}
			key := root.Name + "." + sel.Sel.Name + "()"
			if seenSel[key] {
				return true
			}
			seenSel[key] = true
			out = append(out, p.finding("sharedrng", sel.Pos(),
				"method %s draws from a *rand.Rand field of captured %q inside parallel.%s workers: data race and nondeterministic draws; derive one generator per task from the config seed", sel.Sel.Name, root.Name, w.fn))
		}
		return true
	})
	return out
}

// isCapturedVar reports whether id is a variable declared outside lit.
func isCapturedVar(p *Package, id *ast.Ident, lit *ast.FuncLit) bool {
	obj := objectOf(p.Info, id)
	return obj != nil && isVar(obj) && declaredOutside(p.Info, id, lit)
}

// structHasRand reports whether t (or its pointee) is a struct transitively
// holding a *rand.Rand field.
func structHasRand(t types.Type) bool {
	return structHasRandSeen(t, map[types.Type]bool{})
}

func structHasRandSeen(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
		if seen[t] {
			return false
		}
		seen[t] = true
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if isRandRand(ft) || structHasRandSeen(ft, seen) {
			return true
		}
	}
	return false
}

func isRandRand(t types.Type) bool {
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return obj.Name() == "Rand" && (path == mathRandPath || path == mathRandV2Path)
}
