package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime/pprof"
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
		"GET /v1/jobs":                                1,
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
