package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"sort"
	"strings"
)

// This file is the control-flow half of the dataflow engine (see taint.go
// for the taint half). BuildCFG lowers one function body into basic blocks
// connected by the edges Go's statements induce: if/else joins, loop
// back-edges, switch/select fan-out with fallthrough, labeled break/continue,
// goto, and the return/panic edges into a single synthetic exit block.
// Deferred statements are collected separately: they run at every exit, so
// the path-sensitive rules (goleak, spanend) treat them as present on each
// exit edge rather than at their lexical position.

// Block is one basic block: a maximal run of statements with a single entry
// and a single exit decision. Nodes holds the statements (and, for branch
// heads, the controlling expressions) in execution order.
type Block struct {
	Index int
	Kind  string // entry, exit, body, if.then, if.else, for.head, ...
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// CFG is the control-flow graph of a single function body. Entry has no
// predecessors; Exit collects every return, panic, and natural fall-off.
// Blocks left unreachable by returns/gotos are still materialized (with no
// predecessors) so every statement of the source is represented.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
	Defers []*ast.DeferStmt
}

// BuildCFG builds the control-flow graph of body. body may be the Body of an
// *ast.FuncDecl or *ast.FuncLit; a nil body (declaration without definition)
// yields a two-block entry→exit graph.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:       &CFG{},
		labels:    map[string]*labelInfo{},
		gotoFixes: map[string][]*Block{},
	}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = &Block{Kind: "exit"}
	b.current = b.cfg.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.edge(b.current, b.cfg.Exit) // natural fall-off
	// Resolve forward gotos now that every label has been seen.
	for name, srcs := range b.gotoFixes {
		li := b.labels[name]
		for _, src := range srcs {
			if li != nil && li.target != nil {
				b.edge(src, li.target)
			} else {
				b.edge(src, b.cfg.Exit) // undeclared label: malformed input
			}
		}
	}
	b.cfg.Exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

type labelInfo struct {
	target         *Block // block the labeled statement starts in (goto / labeled loop head)
	breakTarget    *Block // after-block for `break label`
	continueTarget *Block // post/head block for `continue label`
}

type cfgBuilder struct {
	cfg     *CFG
	current *Block // nil when the next statement is unreachable

	// Innermost-first stacks of break/continue targets for unlabeled branches.
	breaks    []*Block
	continues []*Block

	labels    map[string]*labelInfo
	gotoFixes map[string][]*Block // label name -> blocks ending in a pending goto

	// pendingLabel is set while lowering the statement a label is attached
	// to, so its loop registers labeled break/continue targets.
	pendingLabel string
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// startBlock makes blk current, linking it from the previous current block
// (fallthrough edge) when one exists.
func (b *cfgBuilder) startBlock(blk *Block) {
	b.edge(b.current, blk)
	b.current = blk
}

// ensureCurrent guarantees a current block to append to; statements after a
// return/goto land in a fresh unreachable block so they stay represented.
func (b *cfgBuilder) ensureCurrent() *Block {
	if b.current == nil {
		b.current = b.newBlock("unreachable")
	}
	return b.current
}

func (b *cfgBuilder) add(n ast.Node) {
	cur := b.ensureCurrent()
	cur.Nodes = append(cur.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s)

	case *ast.RangeStmt:
		b.rangeStmt(s)

	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, s.Body, "switch")

	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, s.Assign, s.Body, "typeswitch")

	case *ast.SelectStmt:
		b.selectStmt(s)

	case *ast.LabeledStmt:
		b.labeledStmt(s)

	case *ast.BranchStmt:
		b.branchStmt(s)

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.current, b.cfg.Exit)
		b.current = nil

	case *ast.DeferStmt:
		b.add(s)
		b.cfg.Defers = append(b.cfg.Defers, s)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.edge(b.current, b.cfg.Exit)
			b.current = nil
		}

	default:
		// Assignments, declarations, go/send/incdec/empty statements: straight-line.
		if s != nil {
			if _, ok := s.(*ast.EmptyStmt); !ok {
				b.add(s)
			}
		}
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	b.pendingLabel = ""
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	head := b.ensureCurrent()
	after := &Block{Kind: "if.after"} // registered later so dump order reads naturally

	then := b.newBlock("if.then")
	b.edge(head, then)
	b.current = then
	b.stmtList(s.Body.List)
	thenEnd := b.current

	var elseEnd *Block
	if s.Else != nil {
		els := b.newBlock("if.else")
		b.edge(head, els)
		b.current = els
		b.stmt(s.Else)
		elseEnd = b.current
	} else {
		b.edge(head, after)
	}

	b.register(after)
	b.edge(thenEnd, after)
	b.edge(elseEnd, after)
	b.current = after
	if len(after.Preds) == 0 {
		b.current = nil // both arms returned and no else-fallthrough
	}
}

// register assigns an index to a block created out of line.
func (b *cfgBuilder) register(blk *Block) {
	blk.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock("for.head")
	b.startBlock(head)
	if s.Cond != nil {
		b.add(s.Cond)
	}
	body := b.newBlock("for.body")
	after := &Block{Kind: "for.after"}
	post := head
	if s.Post != nil {
		post = &Block{Kind: "for.post"}
	}

	b.edge(head, body)
	if s.Cond != nil {
		b.edge(head, after)
	}

	if label != "" {
		b.labels[label].breakTarget = after
		b.labels[label].continueTarget = post
	}
	b.breaks = append(b.breaks, after)
	b.continues = append(b.continues, post)
	b.current = body
	b.stmtList(s.Body.List)
	b.edge(b.current, post)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]

	if s.Post != nil {
		b.register(post)
		post.Nodes = append(post.Nodes, s.Post)
		b.edge(post, head)
	}
	b.register(after)
	b.current = after
	if len(after.Preds) == 0 {
		b.current = nil // for { ... } with no break never exits
	}
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	head := b.newBlock("range.head")
	b.startBlock(head)
	b.add(s) // the range statement itself defines key/value at the head
	body := b.newBlock("range.body")
	after := &Block{Kind: "range.after"}
	b.edge(head, body)
	b.edge(head, after)

	if label != "" {
		b.labels[label].breakTarget = after
		b.labels[label].continueTarget = head
	}
	b.breaks = append(b.breaks, after)
	b.continues = append(b.continues, head)
	b.current = body
	b.stmtList(s.Body.List)
	b.edge(b.current, head)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]

	b.register(after)
	b.current = after
}

// switchStmt lowers switch and type-switch: head fans out to each case
// clause; fallthrough chains a case to the next; every case end reaches the
// after block, as does the head itself when no default clause exists.
func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Node, body *ast.BlockStmt, kind string) {
	label := b.pendingLabel
	b.pendingLabel = ""
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	head := b.ensureCurrent()
	after := &Block{Kind: kind + ".after"}
	if label != "" {
		b.labels[label].breakTarget = after
	}
	b.breaks = append(b.breaks, after)

	var clauses []*ast.CaseClause
	for _, cs := range body.List {
		if cc, ok := cs.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	// Create every case block up front so fallthrough edges have a target.
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		k := kind + ".case"
		if cc.List == nil {
			k = kind + ".default"
			hasDefault = true
		}
		blocks[i] = b.newBlock(k)
		b.edge(head, blocks[i])
		for _, e := range cc.List {
			blocks[i].Nodes = append(blocks[i].Nodes, e)
		}
	}
	for i, cc := range clauses {
		b.current = blocks[i]
		b.stmtList(cc.Body)
		if fallthroughEnd(cc.Body) && i+1 < len(clauses) {
			b.edge(b.current, blocks[i+1])
		} else {
			b.edge(b.current, after)
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.register(after)
	b.current = after
}

func fallthroughEnd(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	head := b.ensureCurrent()
	head.Nodes = append(head.Nodes, s)
	after := &Block{Kind: "select.after"}
	if label != "" {
		b.labels[label].breakTarget = after
	}
	b.breaks = append(b.breaks, after)
	any := false
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		any = true
		k := "select.case"
		if cc.Comm == nil {
			k = "select.default"
		}
		blk := b.newBlock(k)
		b.edge(head, blk)
		if cc.Comm != nil {
			blk.Nodes = append(blk.Nodes, cc.Comm)
		}
		b.current = blk
		b.stmtList(cc.Body)
		b.edge(b.current, after)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.register(after)
	b.current = after
	if !any {
		// select{} blocks forever: after is unreachable.
		b.current = nil
	}
}

func (b *cfgBuilder) labeledStmt(s *ast.LabeledStmt) {
	name := s.Label.Name
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{}
		b.labels[name] = li
	}
	// The labeled statement starts a fresh block so gotos have a target.
	target := b.newBlock("label." + name)
	b.startBlock(target)
	li.target = target
	b.pendingLabel = name
	b.stmt(s.Stmt)
	b.pendingLabel = ""
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	cur := b.current
	switch s.Tok {
	case token.BREAK:
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil && li.breakTarget != nil {
				b.edge(cur, li.breakTarget)
			}
		} else if n := len(b.breaks); n > 0 {
			b.edge(cur, b.breaks[n-1])
		}
		b.current = nil
	case token.CONTINUE:
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil && li.continueTarget != nil {
				b.edge(cur, li.continueTarget)
			}
		} else if n := len(b.continues); n > 0 {
			b.edge(cur, b.continues[n-1])
		}
		b.current = nil
	case token.GOTO:
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil && li.target != nil {
				b.edge(cur, li.target)
			} else {
				b.gotoFixes[s.Label.Name] = append(b.gotoFixes[s.Label.Name], cur)
			}
		}
		b.current = nil
	case token.FALLTHROUGH:
		// Edge handled by switchStmt; the statement itself is recorded above.
	}
}

// isPanicCall matches a direct call to the builtin panic. (Resolution-free:
// shadowing panic with a local function is not a pattern this codebase has.)
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// ---- path queries and dumps ----

// EveryPathHits reports whether every path from `from` to the exit block
// passes through at least one block for which hit returns true. hit is
// evaluated per block (typically "contains a join node"). from itself is
// consulted too. When some path avoids every hit block, leak is the
// lowest-indexed block from which such a path steps into the exit — the
// return, panic, or fall-off that escapes.
func (c *CFG) EveryPathHits(from *Block, hit func(*Block) bool) (ok bool, leak *Block) {
	// A path avoiding all hit-blocks exists iff exit is reachable from
	// `from` through non-hit blocks only.
	seen := make([]bool, len(c.Blocks))
	stack := []*Block{from}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[blk.Index] {
			continue
		}
		seen[blk.Index] = true
		if hit(blk) {
			continue // path is intercepted here
		}
		for _, succ := range blk.Succs {
			if succ == c.Exit && (leak == nil || blk.Index < leak.Index) {
				leak = blk
			}
		}
		stack = append(stack, blk.Succs...)
	}
	return leak == nil, leak
}

// BlockOf returns the block holding n: the block whose Nodes contain n
// itself, or failing that the block whose smallest node's position range
// contains n. (Smallest-container wins because a head block may hold a
// statement — a RangeStmt, a SelectStmt — whose source range spans the body
// blocks lowered out of it.)
func (c *CFG) BlockOf(n ast.Node) *Block {
	var best *Block
	var bestSpan token.Pos = -1
	for _, blk := range c.Blocks {
		for _, node := range blk.Nodes {
			if node == n {
				return blk
			}
			if node.Pos() <= n.Pos() && n.End() <= node.End() {
				span := node.End() - node.Pos()
				if bestSpan < 0 || span < bestSpan {
					best, bestSpan = blk, span
				}
			}
		}
	}
	if best != nil {
		return best
	}
	// n was decomposed across blocks (an IfStmt stores only its Cond, a
	// ForStmt only its clauses): answer with the block holding n's earliest
	// constituent — its head.
	var headPos token.Pos = -1
	for _, blk := range c.Blocks {
		for _, node := range blk.Nodes {
			if n.Pos() <= node.Pos() && node.End() <= n.End() {
				if headPos < 0 || node.Pos() < headPos {
					best, headPos = blk, node.Pos()
				}
			}
		}
	}
	return best
}

// Dump renders the CFG as one line per block:
//
//	b0 entry [stmt; stmt] -> b1 b2
//
// with statements compacted to single-line source snippets. The output is
// deterministic and used by the golden CFG tests.
func (c *CFG) Dump(fset *token.FileSet) string {
	var sb strings.Builder
	for _, blk := range c.Blocks {
		fmt.Fprintf(&sb, "b%d %s", blk.Index, blk.Kind)
		if len(blk.Nodes) > 0 {
			parts := make([]string, len(blk.Nodes))
			for i, n := range blk.Nodes {
				parts[i] = nodeSnippet(fset, n)
			}
			fmt.Fprintf(&sb, " [%s]", strings.Join(parts, "; "))
		}
		if len(blk.Succs) > 0 {
			succs := make([]int, len(blk.Succs))
			for i, s := range blk.Succs {
				succs[i] = s.Index
			}
			sort.Ints(succs)
			sb.WriteString(" ->")
			for _, s := range succs {
				fmt.Fprintf(&sb, " b%d", s)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// nodeSnippet renders n as a single line of at most 40 runes.
func nodeSnippet(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.RawFormat}
	if rs, ok := n.(*ast.RangeStmt); ok {
		// Render only the range header, not the body.
		n = &ast.RangeStmt{Key: rs.Key, Value: rs.Value, Tok: rs.Tok, X: rs.X,
			Body: &ast.BlockStmt{}, For: rs.For, TokPos: rs.TokPos, Range: rs.Range}
	}
	if _, ok := n.(*ast.SelectStmt); ok {
		return "select"
	}
	if err := cfg.Fprint(&buf, fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	s := strings.Join(strings.Fields(buf.String()), " ")
	if r := []rune(s); len(r) > 40 {
		s = string(r[:37]) + "..."
	}
	return s
}
