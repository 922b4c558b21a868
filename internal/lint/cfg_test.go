package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseFuncBody parses src as the body of func f() and returns its CFG dump.
func cfgDump(t *testing.T, src string) string {
	t.Helper()
	fset := token.NewFileSet()
	file := "package p\nfunc f() {\n" + src + "\n}\n"
	f, err := parser.ParseFile(fset, "cfg.go", file, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fn := f.Decls[0].(*ast.FuncDecl)
	return BuildCFG(fn.Body).Dump(fset)
}

// Golden block/edge dumps for every statement shape the builder lowers.
// These are exact-output tests: an edge added or dropped by a refactor of
// the builder shows up as a diff here before it silently changes what the
// dataflow analyzers can see.
func TestCFGGoldenShapes(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{
			name: "straightline",
			src:  "x := 1\ny := x + 1\n_ = y",
			want: `b0 entry [x := 1; y := x + 1; _ = y] -> b1
b1 exit
`,
		},
		{
			name: "if_else",
			src:  "x := 1\nif x > 0 {\nx++\n} else {\nx--\n}\n_ = x",
			want: `b0 entry [x := 1; x > 0] -> b1 b2
b1 if.then [x++] -> b3
b2 if.else [x--] -> b3
b3 if.after [_ = x] -> b4
b4 exit
`,
		},
		{
			name: "if_early_return",
			src:  "x := 1\nif x > 0 {\nreturn\n}\n_ = x",
			want: `b0 entry [x := 1; x > 0] -> b1 b2
b1 if.then [return] -> b3
b2 if.after [_ = x] -> b3
b3 exit
`,
		},
		{
			name: "for_three_clause",
			src:  "s := 0\nfor i := 0; i < 10; i++ {\ns += i\n}\n_ = s",
			want: `b0 entry [s := 0; i := 0] -> b1
b1 for.head [i < 10] -> b2 b4
b2 for.body [s += i] -> b3
b3 for.post [i++] -> b1
b4 for.after [_ = s] -> b5
b5 exit
`,
		},
		{
			name: "for_break_continue",
			src:  "for i := 0; i < 10; i++ {\nif i == 3 {\ncontinue\n}\nif i == 7 {\nbreak\n}\n}",
			want: `b0 entry [i := 0] -> b1
b1 for.head [i < 10] -> b2 b8
b2 for.body [i == 3] -> b3 b4
b3 if.then [continue] -> b7
b4 if.after [i == 7] -> b5 b6
b5 if.then [break] -> b8
b6 if.after -> b7
b7 for.post [i++] -> b1
b8 for.after -> b9
b9 exit
`,
		},
		{
			name: "range_map",
			src:  "m := map[int]int{}\nfor k, v := range m {\n_ = k\n_ = v\n}",
			want: `b0 entry [m := map[int]int{}] -> b1
b1 range.head [for k, v := range m { }] -> b2 b3
b2 range.body [_ = k; _ = v] -> b1
b3 range.after -> b4
b4 exit
`,
		},
		{
			name: "switch_fallthrough_default",
			src:  "x := 1\nswitch x {\ncase 1:\nx = 10\nfallthrough\ncase 2:\nx = 20\ndefault:\nx = 0\n}\n_ = x",
			want: `b0 entry [x := 1; x] -> b1 b2 b3
b1 switch.case [1; x = 10; fallthrough] -> b2
b2 switch.case [2; x = 20] -> b4
b3 switch.default [x = 0] -> b4
b4 switch.after [_ = x] -> b5
b5 exit
`,
		},
		{
			name: "switch_no_default",
			src:  "x := 1\nswitch {\ncase x > 0:\nx = 1\n}",
			want: `b0 entry [x := 1] -> b1 b2
b1 switch.case [x > 0; x = 1] -> b2
b2 switch.after -> b3
b3 exit
`,
		},
		{
			name: "select_two_cases",
			src:  "var a, b chan int\nselect {\ncase <-a:\n_ = a\ncase v := <-b:\n_ = v\n}",
			want: `b0 entry [var a, b chan int; select] -> b1 b2
b1 select.case [<-a; _ = a] -> b3
b2 select.case [v := <-b; _ = v] -> b3
b3 select.after -> b4
b4 exit
`,
		},
		{
			name: "defer_collected",
			src:  "defer println(1)\nx := 2\n_ = x",
			want: `b0 entry [defer println(1); x := 2; _ = x] -> b1
b1 exit
`,
		},
		{
			name: "labeled_break",
			src:  "outer:\nfor i := 0; i < 3; i++ {\nfor j := 0; j < 3; j++ {\nif i+j > 3 {\nbreak outer\n}\n}\n}",
			want: `b0 entry -> b1
b1 label.outer [i := 0] -> b2
b2 for.head [i < 3] -> b3 b11
b3 for.body [j := 0] -> b4
b4 for.head [j < 3] -> b5 b9
b5 for.body [i+j > 3] -> b6 b7
b6 if.then [break outer] -> b11
b7 if.after -> b8
b8 for.post [j++] -> b4
b9 for.after -> b10
b10 for.post [i++] -> b2
b11 for.after -> b12
b12 exit
`,
		},
		{
			name: "panic_terminates",
			src:  "x := 1\nif x > 0 {\npanic(\"boom\")\n}\n_ = x",
			want: `b0 entry [x := 1; x > 0] -> b1 b2
b1 if.then [panic(\"boom\")] -> b3
b2 if.after [_ = x] -> b3
b3 exit
`,
		},
		{
			name: "goto_forward",
			src:  "x := 1\nif x > 0 {\ngoto done\n}\nx = 2\ndone:\n_ = x",
			want: `b0 entry [x := 1; x > 0] -> b1 b2
b1 if.then [goto done] -> b3
b2 if.after [x = 2] -> b3
b3 label.done [_ = x] -> b4
b4 exit
`,
		},
		{
			name: "infinite_for_no_break",
			src:  "for {\n_ = 1\n}",
			want: `b0 entry -> b1
b1 for.head -> b2
b2 for.body [_ = 1] -> b1
b3 for.after
b4 exit
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := cfgDump(t, tc.src)
			want := strings.ReplaceAll(tc.want, `\"`, `"`)
			if got != want {
				t.Errorf("CFG dump mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// Every statement of the source must land in exactly one reachable-or-not
// block, and BlockOf must find it.
func TestCFGBlockOfFindsBodyStatements(t *testing.T) {
	fset := token.NewFileSet()
	src := `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			s += i
		}
	}
	return s
}`
	f, err := parser.ParseFile(fset, "b.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	fn := f.Decls[0].(*ast.FuncDecl)
	cfg := BuildCFG(fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch n.(type) {
		case *ast.AssignStmt, *ast.ReturnStmt, *ast.IfStmt:
			if blk := cfg.BlockOf(n); blk == nil {
				t.Errorf("BlockOf(%T at %v) = nil", n, fset.Position(n.Pos()))
			}
		}
		return true
	})
}

// EveryPathHits: a join present on the straight path but skippable via an
// early return must report false and name the return's block as the leak; a
// join dominating the exit reports true.
func TestCFGEveryPathHits(t *testing.T) {
	fset := token.NewFileSet()
	src := `package p
func f(cond bool, join func()) {
	spawn()
	if cond {
		return
	}
	join()
}
func spawn() {}`
	f, err := parser.ParseFile(fset, "e.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	fn := f.Decls[0].(*ast.FuncDecl)
	cfg := BuildCFG(fn.Body)

	isCall := func(blk *Block, name string) bool {
		for _, n := range blk.Nodes {
			found := false
			ast.Inspect(n, func(x ast.Node) bool {
				if id, ok := x.(*ast.Ident); ok && id.Name == name {
					found = true
				}
				return !found
			})
			if found {
				return true
			}
		}
		return false
	}
	var spawnBlk *Block
	for _, blk := range cfg.Blocks {
		if isCall(blk, "spawn") {
			spawnBlk = blk
		}
	}
	if spawnBlk == nil {
		t.Fatal("spawn block not found")
	}
	ok, leak := cfg.EveryPathHits(spawnBlk, func(b *Block) bool { return isCall(b, "join") })
	if ok {
		t.Error("early-return path skips join() but EveryPathHits said true")
	}
	if leak == nil || !isReturnBlock(leak) {
		t.Errorf("leak should be the early-return block, got %+v", leak)
	}
	ok, leak = cfg.EveryPathHits(spawnBlk, func(b *Block) bool { return isCall(b, "join") || isReturnBlock(b) })
	if !ok || leak != nil {
		t.Errorf("join-or-return covers every path but EveryPathHits said %v (leak %+v)", ok, leak)
	}
}

func isReturnBlock(b *Block) bool {
	for _, n := range b.Nodes {
		if _, ok := n.(*ast.ReturnStmt); ok {
			return true
		}
	}
	return false
}
