package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoLeak flags a goroutine spawned in a function that can return without
// reaching the corresponding join — a WaitGroup Wait or a channel receive —
// on some CFG path. The classic shape is an early error return between the
// spawn and the Wait: the goroutine outlives the request that started it,
// which under a bounded worker pool is a slow leak that eventually starves
// the service.
//
// Two spawn shapes are exempt:
//
//   - detached-but-tracked goroutines, whose synchronization handles
//     (channels, WaitGroups) are struct fields, package variables, or
//     otherwise outlive the function — their lifecycle is managed by a peer
//     (e.g. ops.Handle's Serve goroutine joined by Shutdown);
//   - spawns whose join is deferred (defer wg.Wait()), which by definition
//     runs on every return path.
//
// nakedgo already restricts go statements to internal/parallel; this rule
// checks the paths around the spawns that are allowed to exist.
func GoLeak() *Analyzer {
	return &Analyzer{
		Name: "goleak",
		Doc:  "goroutine spawn with an early-return path that skips its Wait/receive join",
		Run:  runGoLeak,
	}
}

func runGoLeak(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			out = append(out, goLeakInFunc(p, fn, fn.Body)...)
		}
	}
	return out
}

func goLeakInFunc(p *Package, fn *ast.FuncDecl, body *ast.BlockStmt) []Finding {
	var spawns []*ast.GoStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != body {
			// Spawns inside nested closures run on the closure's own CFG;
			// analyzing them against the outer function's paths would lie.
			return false
		}
		if g, ok := n.(*ast.GoStmt); ok {
			spawns = append(spawns, g)
		}
		return true
	})
	if len(spawns) == 0 {
		return nil
	}

	cfg := BuildCFG(body)
	var out []Finding
	for _, g := range spawns {
		handles := spawnHandles(p, g)
		if len(handles) == 0 {
			// No channel/WaitGroup in sight: nothing to join on at all.
			out = append(out, p.finding("goleak", g.Pos(),
				"goroutine has no WaitGroup or channel to join on; it can outlive %s on every return path", fn.Name.Name))
			continue
		}
		if !handlesAreLocal(p, handles, fn) {
			continue // detached-but-tracked: lifecycle owned elsewhere
		}
		if handlesEscape(p, handles, g, body) {
			continue // a returned/stored handle transfers join duty to the caller
		}
		if deferredJoin(p, cfg, handles) {
			continue // defer wg.Wait() runs on every path
		}
		blk := cfg.BlockOf(g)
		if blk == nil {
			continue
		}
		joined, _ := cfg.EveryPathHits(blk, func(b *Block) bool {
			for _, n := range b.Nodes {
				if b == blk && n.Pos() <= g.Pos() {
					continue // joins before the spawn don't cover it
				}
				if containsJoin(p, n, handles) {
					return true
				}
			}
			return false
		})
		if !joined {
			out = append(out, p.finding("goleak", g.Pos(),
				"goroutine can leak: a return path exits %s without reaching its Wait/channel-receive join; join on every path or defer the Wait", fn.Name.Name))
		}
	}
	return out
}

// spawnHandles collects the synchronization objects the spawned goroutine
// signals through: channels it sends on or closes, and WaitGroups it calls
// Done/Add on (or that are referenced at all inside the spawn).
func spawnHandles(p *Package, g *ast.GoStmt) map[types.Object]bool {
	handles := map[types.Object]bool{}
	collect := func(n ast.Node) {
		ast.Inspect(n, func(x ast.Node) bool {
			id, ok := x.(*ast.Ident)
			if !ok {
				return true
			}
			obj := objectOf(p.Info, id)
			if obj == nil || !isVar(obj) {
				return true
			}
			if isSyncHandleType(obj.Type()) {
				handles[obj] = true
			}
			return true
		})
	}
	collect(g.Call)
	return handles
}

// isSyncHandleType: channels and sync.WaitGroup (by value or pointer).
func isSyncHandleType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
	}
	return false
}

// handlesAreLocal reports whether at least one handle is a local variable of
// fn (incl. parameters). If every handle escapes (struct fields reached via
// pointers, package-level vars), the goroutine is detached-but-tracked.
func handlesAreLocal(p *Package, handles map[types.Object]bool, fn *ast.FuncDecl) bool {
	for obj := range handles {
		if obj.Pos() != token.NoPos && fn.Pos() <= obj.Pos() && obj.Pos() < fn.End() {
			// Skip fields of locally built structs? A *Handle built locally
			// whose field channel is the handle: the field var is declared at
			// the type, not in fn, so it already reads as escaping.
			return true
		}
	}
	return false
}

// handlesEscape reports whether some handle leaves the function: returned,
// stored into a field/element/map, wrapped into a composite literal, or
// passed to another call (which may take over the join). Escaped handles
// make the leak question the caller's, not this function's.
func handlesEscape(p *Package, handles map[types.Object]bool, g *ast.GoStmt, body *ast.BlockStmt) bool {
	mentionsHandle := func(e ast.Expr) bool {
		if e == nil {
			return false
		}
		found := false
		ast.Inspect(e, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok {
				if obj := objectOf(p.Info, id); obj != nil && handles[obj] {
					found = true
				}
			}
			return !found
		})
		return found
	}
	escaped := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escaped {
			return false
		}
		switch x := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if mentionsHandle(r) {
					escaped = true
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if _, plain := lhs.(*ast.Ident); plain {
					continue // rebinding a local is not an escape
				}
				if i < len(x.Rhs) && mentionsHandle(x.Rhs[i]) {
					escaped = true
				}
			}
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				if mentionsHandle(elt) {
					escaped = true
				}
			}
		case *ast.CallExpr:
			if n == g.Call || insideNode(g, n) {
				return true
			}
			// close(ch), len/cap, and the builtin family don't transfer
			// ownership; any other callee receiving the handle might.
			if id, ok := x.Fun.(*ast.Ident); ok {
				if _, builtin := objectOf(p.Info, id).(*types.Builtin); builtin {
					return true
				}
			}
			for _, arg := range x.Args {
				if mentionsHandle(arg) {
					escaped = true
				}
			}
		}
		return !escaped
	})
	return escaped
}

// insideNode reports whether inner lies within outer's source range.
func insideNode(outer, inner ast.Node) bool {
	return outer.Pos() <= inner.Pos() && inner.End() <= outer.End()
}

// deferredJoin reports whether any deferred statement in the function joins
// one of the handles.
func deferredJoin(p *Package, cfg *CFG, handles map[types.Object]bool) bool {
	for _, d := range cfg.Defers {
		if containsJoin(p, d.Call, handles) {
			return true
		}
		// defer func() { wg.Wait() }()
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok && containsJoin(p, lit.Body, handles) {
			return true
		}
	}
	return false
}

// containsJoin reports whether n contains a join on one of the handles: a
// receive from a handle channel, a range over it, or a Wait() call on a
// handle WaitGroup.
func containsJoin(p *Package, n ast.Node, handles map[types.Object]bool) bool {
	found := false
	isHandle := func(e ast.Expr) bool {
		root := rootIdent(e)
		if root == nil {
			return false
		}
		obj := objectOf(p.Info, root)
		return obj != nil && handles[obj]
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		switch v := x.(type) {
		case *ast.UnaryExpr:
			if v.Op == token.ARROW && isHandle(v.X) {
				found = true
			}
		case *ast.RangeStmt:
			if isHandle(v.X) {
				if t := p.Info.TypeOf(v.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						found = true
					}
				}
			}
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" && isHandle(sel.X) {
				found = true
			}
		}
		return !found
	})
	return found
}
