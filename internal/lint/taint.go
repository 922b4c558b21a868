package lint

import (
	"go/ast"
	"go/types"
)

// Taint tracks which variables a seeded value may have flowed into. Seeds
// are expression predicates (e.g. "calls time.Now"); propagation follows
// assignments and declarations whose right-hand side contains a seed or a
// tainted variable, so a value laundered through locals and arithmetic
// stays tainted.
type Taint struct {
	Objs map[types.Object]bool

	info   *types.Info
	isSeed func(ast.Expr) bool
}

// TaintedBy computes the taint fixpoint for one function body: every
// assignment in body is revisited until no further variable becomes
// tainted. The iteration is flow-insensitive — an assignment taints its
// target wherever it sits — which over-approximates every path at once.
func TaintedBy(p *Package, body *ast.BlockStmt, isSeed func(ast.Expr) bool) *Taint {
	t := &Taint{Objs: map[types.Object]bool{}, info: p.Info, isSeed: isSeed}
	if body == nil {
		return t
	}
	mark := func(e ast.Expr) {
		root := rootIdent(e)
		if root == nil {
			return
		}
		if obj := objectOf(p.Info, root); obj != nil && isVar(obj) {
			t.Objs[obj] = true
		}
	}
	// flow taints lhs[i] when its right-hand side is tainted; a single
	// right-hand side (a tuple assignment) taints every target.
	flow := func(lhs, rhs []ast.Expr) {
		for i, l := range lhs {
			var r ast.Expr
			switch {
			case len(rhs) == len(lhs):
				r = rhs[i]
			case len(rhs) == 1:
				r = rhs[0]
			}
			if t.Tainted(r) {
				mark(l)
			}
		}
	}
	for before := -1; before != len(t.Objs); {
		before = len(t.Objs)
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				flow(s.Lhs, s.Rhs)
			case *ast.ValueSpec:
				names := make([]ast.Expr, len(s.Names))
				for i, name := range s.Names {
					names[i] = name
				}
				flow(names, s.Values)
			}
			return true
		})
	}
	return t
}

// Tainted reports whether e carries taint: it is itself a seed, contains a
// seed, or mentions a tainted variable.
func (t *Taint) Tainted(e ast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if ex, ok := n.(ast.Expr); ok && t.isSeed(ex) {
			found = true
		} else if id, ok := n.(*ast.Ident); ok {
			if obj := objectOf(t.info, id); obj != nil && t.Objs[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}
