package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SpanEnd flags span-open calls whose end function can leak: the span
// openers (obs.SpanCtx and multiclust.StartSpan) return (context, end),
// and end MUST run exactly once, or the collector's active-span table and
// the trace keep the span open forever and every child span re-roots
// under a stale parent. The safe idiom is to defer it at the open site:
//
//	ctx, end := obs.SpanCtx(ctx, rec, "algo.phase")
//	defer end()
//
// A finding is reported when the end function is discarded (statement
// call, blank assignment, `defer obs.SpanCtx(...)`, which defers the open
// itself) or when it is bound to a variable that is neither deferred nor
// plainly called on every path of the function's CFG from the open to the
// exit — a return, a panic, or falling off the end of the body. An end
// value that escapes — returned, passed as an argument, captured by a
// closure, stored through a non-identifier — is assumed managed by the
// receiver and not flagged.
func SpanEnd() *Analyzer {
	return &Analyzer{
		Name: "spanend",
		Doc:  "span end functions neither deferred nor called on every return path",
		Run:  runSpanEnd,
	}
}

func runSpanEnd(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				out = append(out, spanEndScope(p, body)...)
			}
			return true // nested function literals get their own scope
		})
	}
	return out
}

// spanOpenCall matches a call that opens a span and returns the opener's
// name. Both openers return (context, end), so end is result index 1.
func spanOpenCall(p *Package, call *ast.CallExpr) (opener string, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	base, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	switch path := pkgName(p.Info, base); {
	case strings.HasSuffix(path, "internal/obs") && sel.Sel.Name == "SpanCtx":
		return "obs.SpanCtx", true
	case path == "multiclust" && sel.Sel.Name == "StartSpan":
		return "multiclust.StartSpan", true
	}
	return "", false
}

// spanEndScope analyzes one function body. Nested function literals are
// separate scopes: their span calls are skipped here (the outer walk
// hands them their own spanEndScope call) and an end variable referenced
// inside one counts as an escape, not a plain call.
func spanEndScope(p *Package, body *ast.BlockStmt) []Finding {
	var out []Finding
	inspectStack(body, func(n ast.Node, stack []ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit && len(stack) > 0 {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		opener, ok := spanOpenCall(p, call)
		if !ok {
			return true
		}
		if f, leaked := classifySpanOpen(p, body, call, opener, stack); leaked {
			out = append(out, f)
		}
		return true
	})
	return out
}

// classifySpanOpen decides whether one span-open call leaks its end
// function, based on the syntactic context the call appears in.
func classifySpanOpen(p *Package, body *ast.BlockStmt, call *ast.CallExpr, opener string, stack []ast.Node) (Finding, bool) {
	if len(stack) == 0 {
		return Finding{}, false
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.DeferStmt:
		if parent.Call == call {
			// defer obs.SpanCtx(...) defers the OPEN, so the end
			// function is produced at function exit and dropped.
			return p.finding("spanend", call.Pos(),
				"defer %s(...) discards the span end function — open the span first: ctx, end := %s(...); defer end()", opener, opener), true
		}
		return Finding{}, false
	case *ast.ExprStmt:
		return p.finding("spanend", call.Pos(),
			"result of %s is discarded; the span never closes — defer the returned end function", opener), true
	case *ast.AssignStmt:
		if len(parent.Rhs) != 1 || parent.Rhs[0] != call || len(parent.Lhs) != 2 {
			return Finding{}, false
		}
		endID, ok := parent.Lhs[1].(*ast.Ident)
		if !ok {
			return Finding{}, false // stored through an index/selector: escapes
		}
		if endID.Name == "_" {
			return p.finding("spanend", call.Pos(),
				"end function of %s assigned to the blank identifier; the span never closes", opener), true
		}
		obj := objectOf(p.Info, endID)
		if obj == nil {
			return Finding{}, false
		}
		return spanEndUsage(p, body, call, opener, endID, obj)
	default:
		return Finding{}, false // argument, return statement, ...: escapes
	}
}

// spanEndUsage checks how a tracked end variable is used inside body and
// reports the call leaky unless it is deferred, escapes, or is plainly
// called on every CFG path from the open to the function's exit.
func spanEndUsage(p *Package, body *ast.BlockStmt, call *ast.CallExpr, opener string, def *ast.Ident, obj types.Object) (Finding, bool) {
	var deferred, escapes, called bool
	inspectStack(body, func(n ast.Node, stack []ast.Node) bool {
		x, ok := n.(*ast.Ident)
		if !ok || x == def || objectOf(p.Info, x) != obj {
			return true
		}
		for _, a := range stack {
			if _, ok := a.(*ast.FuncLit); ok {
				escapes = true // captured by a closure
				return true
			}
		}
		parent := stack[len(stack)-1]
		if c, ok := parent.(*ast.CallExpr); ok && c.Fun == x {
			switch stack[len(stack)-2].(type) {
			case *ast.ExprStmt:
				called = true
			case *ast.DeferStmt:
				deferred = true
			default:
				escapes = true // go end(), or a larger expression
			}
			return true
		}
		if a, ok := parent.(*ast.AssignStmt); ok && a.Tok == token.ASSIGN && len(a.Lhs) == 1 {
			if blank, ok := a.Lhs[0].(*ast.Ident); ok && blank.Name == "_" {
				return true // _ = end silences "unused", not this rule
			}
		}
		escapes = true // argument, return value, re-assignment, ...
		return true
	})
	if deferred || escapes {
		return Finding{}, false
	}
	if !called {
		return p.finding("spanend", call.Pos(),
			"end function %q of %s is never deferred or called; the span never closes", def.Name, opener), true
	}
	cfg := BuildCFG(body)
	from := cfg.BlockOf(call)
	if from == nil {
		return Finding{}, false
	}
	closes := func(n ast.Node) bool {
		stmt, ok := n.(*ast.ExprStmt)
		if !ok {
			return false
		}
		c, ok := stmt.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := c.Fun.(*ast.Ident)
		return ok && objectOf(p.Info, id) == obj
	}
	ok, leak := cfg.EveryPathHits(from, func(b *Block) bool {
		for _, n := range b.Nodes {
			if (b != from || n.Pos() > call.Pos()) && closes(n) {
				return true
			}
		}
		return false
	})
	if ok {
		return Finding{}, false
	}
	// The leaking path leaves through the block's return or panic, or else
	// falls off the end of the body.
	exit := body.Rbrace
	if n := len(leak.Nodes); n > 0 {
		switch last := leak.Nodes[n-1].(type) {
		case *ast.ReturnStmt:
			exit = last.Pos()
		case *ast.ExprStmt:
			if isPanicCall(last.X) {
				exit = last.Pos()
			}
		}
	}
	return p.finding("spanend", call.Pos(),
		"end function %q of %s is not called on every return path (the path through line %d leaks the span); defer it at the open site", def.Name, opener, p.position(exit).Line), true
}
