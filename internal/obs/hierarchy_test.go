package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
)

func TestSplitSpanName(t *testing.T) {
	cases := []struct{ in, algo, phase string }{
		{"kmeans.run", "kmeans", "run"},
		{"subspace.grid.level", "subspace.grid", "level"},
		{"plain", "plain", "plain"},
	}
	for _, c := range cases {
		if algo, phase := splitSpanName(c.in); algo != c.algo || phase != c.phase {
			t.Errorf("splitSpanName(%q) = %q,%q want %q,%q", c.in, algo, phase, c.algo, c.phase)
		}
	}
}

func TestSpanCtxBuildsCollectorTree(t *testing.T) {
	c := NewCollector()
	rctx, endRoot := SpanCtx(context.Background(), c, "metaclust.run")
	gctx, endGen := SpanCtx(rctx, c, "metaclust.generate")
	for i := 0; i < 3; i++ {
		_, end := SpanCtx(gctx, c, "kmeans.run")
		end()
	}
	endGen()
	_, endGroup := SpanCtx(rctx, c, "metaclust.group")
	endGroup()
	endRoot()
	_, endTop := SpanCtx(context.Background(), c, "kmeans.run")
	endTop()
	_, endRoute := SpanCtx(context.Background(), c, "GET /v1/jobs")
	endRoute()

	snap := c.Snapshot()
	wantCounts := map[string]int64{
		"metaclust.run":                               1,
		"metaclust.run/metaclust.generate":            1,
		"metaclust.run/metaclust.generate/kmeans.run": 3,
		"metaclust.run/metaclust.group":               1,
		"kmeans.run":                                  1,
		`GET \/v1\/jobs`:                              1, // a name's own '/' is escaped
	}
	if len(snap.Tree) != len(wantCounts) {
		t.Fatalf("tree has %d paths, want %d: %v", len(snap.Tree), len(wantCounts), snap.Tree)
	}
	for path, want := range wantCounts {
		if got := snap.Tree[path].Count; got != want {
			t.Errorf("Tree[%q].Count = %d, want %d", path, got, want)
		}
	}
	// The flat per-name view sums the tree entries that end in the name;
	// a name holding a slash stays one name.
	if snap.Spans["kmeans.run"].Count != 4 || snap.Spans["metaclust.run"].Count != 1 ||
		snap.Spans["GET /v1/jobs"].Count != 1 || len(snap.Spans) != 5 {
		t.Errorf("flat span view wrong: %v", snap.Spans)
	}
	if got, want := snap.Spans["kmeans.run"].Total,
		snap.Tree["kmeans.run"].Total+snap.Tree["metaclust.run/metaclust.generate/kmeans.run"].Total; got != want {
		t.Errorf("flat kmeans.run total = %v, want the tree's sum %v", got, want)
	}
	// Every span ended, so no live-span bookkeeping may leak.
	if n := len(c.active); n != 0 {
		t.Errorf("active span map leaked %d entries", n)
	}
}

func TestSpanWithDeadOrUnknownParentRootsFreshSubtree(t *testing.T) {
	c := NewCollector()
	rctx, endRoot := SpanCtx(context.Background(), c, "root.run")
	endRoot()
	// Parent id still in ctx but the span has ended: child roots itself.
	_, end := SpanCtx(rctx, c, "late.child")
	end()
	// Explicit unknown parent id, below SpanCtx.
	c.startSpan("orphan", NewSpanID(), SpanID(999999))()
	snap := c.Snapshot()
	for _, path := range []string{"root.run", "late.child", "orphan"} {
		if snap.Tree[path].Count != 1 {
			t.Errorf("Tree[%q].Count = %d, want 1 (tree: %v)", path, snap.Tree[path].Count, snap.Tree)
		}
	}
}

func TestSpanCtxNilContextAndNilRecorder(t *testing.T) {
	c := NewCollector()
	var nilCtx context.Context
	lctx, end := SpanCtx(nilCtx, c, "x")
	if lctx == nil {
		t.Fatal("SpanCtx(nil, rec, ...) returned nil ctx")
	}
	end()
	ctx := context.Background()
	sameCtx, noop := SpanCtx(ctx, nil, "x")
	if sameCtx != ctx {
		t.Error("nil recorder must return ctx unchanged")
	}
	noop()
	if SpanFromContext(nil) != 0 || SpanFromContext(ctx) != 0 {
		t.Error("SpanFromContext must be 0 with no open span")
	}
}

func TestSpanCtxAppliesPprofLabels(t *testing.T) {
	c := NewCollector()
	lctx, end := SpanCtx(context.Background(), c, "subspace.grid.level")
	defer end()
	if v, ok := pprof.Label(lctx, "algo"); !ok || v != "subspace.grid" {
		t.Errorf(`algo label = %q,%v want "subspace.grid",true`, v, ok)
	}
	if v, ok := pprof.Label(lctx, "phase"); !ok || v != "level" {
		t.Errorf(`phase label = %q,%v want "level",true`, v, ok)
	}
}

func TestWriteSpanTreeRendersIndentedDeterministically(t *testing.T) {
	c := NewCollector()
	rctx, endRoot := SpanCtx(context.Background(), c, "alpha.run")
	_, e := SpanCtx(rctx, c, "alpha.phase")
	e()
	endRoot()
	_, eb := SpanCtx(context.Background(), c, "beta.run")
	eb()
	s := c.Snapshot().StripTimings()
	var a, b bytes.Buffer
	if err := s.WriteSpanTree(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSpanTree(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two WriteSpanTree renders of the same snapshot differ")
	}
	want := "alpha.run count=1 total=0s\n" +
		"  alpha.phase count=1 total=0s\n" +
		"beta.run count=1 total=0s\n"
	if a.String() != want {
		t.Errorf("WriteSpanTree =\n%s\nwant\n%s", a.String(), want)
	}
}

// TestSpanTreeNamesWithSlash pins tree paths to span names that hold a
// '/' or a '\': a root "GET /v1/jobs" renders whole at depth 0, a root
// "a/b" and a root `a\` with a child "b" keep paths apart from a span "b"
// under a root "a" and from each other, and a name without either renders
// as it always did.
func TestSpanTreeNamesWithSlash(t *testing.T) {
	c := NewCollector()
	span := func(ctx context.Context, name string) (context.Context, func()) {
		return SpanCtx(ctx, c, name)
	}
	bg := context.Background()
	_, end := span(bg, "GET /v1/jobs")
	end()
	for _, root := range []string{"a", `a\`} {
		ctx, endRoot := span(bg, root)
		_, end := span(ctx, "b")
		end()
		endRoot()
	}
	_, end = span(bg, "a/b")
	end()
	s := c.Snapshot().StripTimings()
	wantTree := map[string]SpanStat{
		`GET \/v1\/jobs`: {Count: 1},
		"a":              {Count: 1},
		"a/b":            {Count: 1},
		`a\/b`:           {Count: 1},
		`a\\`:            {Count: 1},
		`a\\/b`:          {Count: 1},
	}
	if !reflect.DeepEqual(s.Tree, wantTree) {
		t.Errorf("Tree = %v, want %v", s.Tree, wantTree)
	}
	wantSpans := map[string]SpanStat{"GET /v1/jobs": {Count: 1}, "a": {Count: 1}, `a\`: {Count: 1}, "a/b": {Count: 1}, "b": {Count: 2}}
	if !reflect.DeepEqual(s.Spans, wantSpans) {
		t.Errorf("Spans = %v, want %v", s.Spans, wantSpans)
	}
	var out bytes.Buffer
	if err := s.WriteSpanTree(&out); err != nil {
		t.Fatal(err)
	}
	want := "GET /v1/jobs count=1 total=0s\n" +
		"a count=1 total=0s\n" +
		"  b count=1 total=0s\n" +
		"a/b count=1 total=0s\n" +
		`a\ count=1 total=0s` + "\n" +
		"  b count=1 total=0s\n"
	if out.String() != want {
		t.Errorf("WriteSpanTree =\n%s\nwant\n%s", out.String(), want)
	}
}

// TestWriteSpanTreeSubtreesUnderOwnParent pins the span tree's order. A
// root whose name extends another root's name with a byte below '/' (' ',
// '-', '.') must not split that root from its children; and a tree where no
// sibling's name extends another's renders exactly as plain string order of
// the paths does, the order e2ebench's span-tree parser has always read.
func TestWriteSpanTreeSubtreesUnderOwnParent(t *testing.T) {
	render := func(spans [][]string) (got, plain string) {
		c := NewCollector()
		for _, chain := range spans {
			ctx := context.Background()
			var ends []func()
			for _, name := range chain {
				var end func()
				ctx, end = SpanCtx(ctx, c, name)
				ends = append(ends, end)
			}
			for i := len(ends) - 1; i >= 0; i-- {
				ends[i]()
			}
		}
		s := c.Snapshot().StripTimings()
		var out bytes.Buffer
		if err := s.WriteSpanTree(&out); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for _, path := range sortedKeys(s.Tree) {
			depth, name := splitPath(path)
			fmt.Fprintf(&b, "%s%s count=%d total=0s\n", strings.Repeat("  ", depth), name, s.Tree[path].Count)
		}
		return out.String(), b.String()
	}

	got, _ := render([][]string{
		{"jobs.run", "kmeans.run"},
		{"jobs.run.retry"},
		{"jobs.run-x", "kmeans.seed"},
		{"jobs.run x"},
		{"jobs.run", "kmeans.run.a", "kmeans.run"},
	})
	want := "jobs.run count=2 total=0s\n" +
		"  kmeans.run count=1 total=0s\n" +
		"  kmeans.run.a count=1 total=0s\n" +
		"    kmeans.run count=1 total=0s\n" +
		"jobs.run x count=1 total=0s\n" +
		"jobs.run-x count=1 total=0s\n" +
		"  kmeans.seed count=1 total=0s\n" +
		"jobs.run.retry count=1 total=0s\n"
	if got != want {
		t.Errorf("extended names: WriteSpanTree =\n%s\nwant\n%s", got, want)
	}

	got, plain := render([][]string{
		{"jobs.run", "metaclust.run", "metaclust.generate", "kmeans.run", "kmeans.seed"},
		{"jobs.run", "metaclust.run", "metaclust.group"},
		{"GET /v1/jobs"},
		{"a", "b"},
		{`a\`, "b"},
		{"a/b"},
		{"subspace.subclu.search", "dbscan.neighbors"},
	})
	if got != plain {
		t.Errorf("no extended names: WriteSpanTree =\n%s\nplain string order renders\n%s", got, plain)
	}
}

// A Collector renders one complete event per span, on the track of the
// span's root, with the child's parent id in its args.
func TestWriteChromeTrace(t *testing.T) {
	c := NewCollector()
	rctx, endRoot := SpanCtx(context.Background(), c, "root.run")
	_, end := SpanCtx(rctx, c, "child.step")
	end()
	endRoot()
	c.Count("noise", 1) // only spans render

	var out bytes.Buffer
	if err := c.WriteChromeTrace(&out, ""); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Tid  uint64            `json:"tid"`
			Args map[string]uint64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d trace events, want 2:\n%s", len(doc.TraceEvents), out.String())
	}
	var rootID uint64
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q ph = %q, want X", ev.Name, ev.Ph)
		}
		if ev.Name == "root.run" {
			rootID = ev.Args["id"]
		}
	}
	if rootID == 0 || rootID != uint64(SpanFromContext(rctx)) {
		t.Fatalf("root.run event missing or misnumbered:\n%s", out.String())
	}
	for _, ev := range doc.TraceEvents {
		if ev.Tid != rootID {
			t.Errorf("event %q tid = %d, want root id %d (shared track)", ev.Name, ev.Tid, rootID)
		}
		if ev.Name == "child.step" && ev.Args["parent"] != rootID {
			t.Errorf("child parent = %d, want %d", ev.Args["parent"], rootID)
		}
	}
}

// chromeDoc is the part of a Chrome trace document the ring test reads.
type chromeDoc struct {
	TraceEvents []struct {
		Name string     `json:"name"`
		Tid  SpanID     `json:"tid"`
		Args chromeArgs `json:"args"`
	} `json:"traceEvents"`
	OtherData map[string]int64 `json:"otherData"`
}

func renderCollector(t *testing.T, c *Collector, traceID string) chromeDoc {
	t.Helper()
	var out bytes.Buffer
	if err := c.WriteChromeTrace(&out, traceID); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	return doc
}

// The Collector keeps the newest spanRingSize span instances: the oldest
// ones drop, a root that ends after more children than the ring holds is
// kept, and Reset empties the ring and its dropped count.
func TestCollectorSpanRingKeepsNewest(t *testing.T) {
	c := NewCollector()
	const extra = 10
	ids := make([]SpanID, 0, spanRingSize+extra)
	for i := 0; i < spanRingSize+extra; i++ {
		id := NewSpanID()
		ids = append(ids, id)
		c.startSpan("flat.op", id, 0)()
	}
	doc := renderCollector(t, c, "0af7651916cd43dd8448eb211c80319c")
	if len(doc.TraceEvents) != spanRingSize || doc.OtherData["dropped_spans"] != extra {
		t.Fatalf("kept %d events, dropped_spans %d; want %d and %d",
			len(doc.TraceEvents), doc.OtherData["dropped_spans"], spanRingSize, extra)
	}
	kept := map[SpanID]bool{}
	for _, ev := range doc.TraceEvents {
		kept[ev.Args.ID] = true
		if ev.Args.TraceID != "0af7651916cd43dd8448eb211c80319c" {
			t.Fatalf("event %d trace_id = %q", ev.Args.ID, ev.Args.TraceID)
		}
	}
	for i, id := range ids {
		if kept[id] != (i >= extra) {
			t.Fatalf("span %d (id %d) kept = %v; want only the newest %d", i, id, kept[id], spanRingSize)
		}
	}

	c.Reset()
	if doc := renderCollector(t, c, ""); len(doc.TraceEvents) != 0 || doc.OtherData != nil {
		t.Fatalf("after Reset: %d events, otherData %v; want none", len(doc.TraceEvents), doc.OtherData)
	}

	rctx, endRoot := SpanCtx(context.Background(), c, "root.run")
	for i := 0; i < spanRingSize+extra; i++ {
		_, end := SpanCtx(rctx, c, "child.step")
		end()
	}
	endRoot()
	doc = renderCollector(t, c, "")
	if len(doc.TraceEvents) != spanRingSize || doc.OtherData["dropped_spans"] != extra+1 {
		t.Fatalf("kept %d events, dropped_spans %d; want %d and %d",
			len(doc.TraceEvents), doc.OtherData["dropped_spans"], spanRingSize, extra+1)
	}
	rootID := SpanFromContext(rctx)
	var sawRoot bool
	for _, ev := range doc.TraceEvents {
		sawRoot = sawRoot || ev.Name == "root.run"
		if ev.Tid != rootID || ev.Args.TraceID != "" {
			t.Fatalf("event %q: tid %d trace_id %q; want tid %d and no trace_id", ev.Name, ev.Tid, ev.Args.TraceID, rootID)
		}
	}
	if !sawRoot {
		t.Fatal("the root that ended after its children fell out of the ring")
	}
}
