package obs

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestHelpersNilRecorderAreNoOps(t *testing.T) {
	// Must not panic, must not do anything observable.
	Count(nil, "x", 3)
	Gauge(nil, "x", 1.5)
	Observe(nil, "x", 0, 2.5)
	Histogram(nil, "x", 0.001)
	ctx := context.Background()
	got, end := SpanCtx(ctx, nil, "x")
	if end == nil {
		t.Fatal("SpanCtx(ctx, nil) returned nil end func")
	}
	if got != ctx {
		t.Fatal("SpanCtx(ctx, nil) derived a new context")
	}
	end()
}

// The zero-overhead contract: every nil-recorder helper, and recorder
// resolution itself, performs zero heap allocations.
func TestNilRecorderPathDoesNotAllocate(t *testing.T) {
	ctx := context.Background()
	cases := map[string]func(){
		"count":     func() { Count(nil, "kmeans.iterations", 1) },
		"gauge":     func() { Gauge(nil, "metaclust.mean_pairwise", 0.5) },
		"observe":   func() { Observe(nil, "kmeans.sse", 3, 12.5) },
		"histogram": func() { Histogram(nil, "jobs.exec_seconds", 0.004) },
		"spanctx": func() {
			_, end := SpanCtx(ctx, nil, "kmeans.run")
			end()
		},
		"from":    func() { From(ctx) },
		"default": func() { Default() },
	}
	for name, fn := range cases {
		if got := testing.AllocsPerRun(1000, fn); got != 0 {
			t.Errorf("%s: nil-recorder path allocated %.1f times per op, want 0", name, got)
		}
	}
}

func TestCollectorRecordsAndSnapshots(t *testing.T) {
	c := NewCollector()
	c.Count("a.b", 2)
	c.Count("a.b", 3)
	c.Gauge("g", 1.25)
	c.Observe("s", 1, 10)
	c.Observe("s", 0, 20)
	end := c.StartSpan("sp", NewSpanID(), 0)
	end()

	if got := c.Counter("a.b"); got != 5 {
		t.Errorf("Counter = %d, want 5", got)
	}
	if v, ok := c.GaugeValue("g"); !ok || v != 1.25 {
		t.Errorf("GaugeValue = %v,%v want 1.25,true", v, ok)
	}
	ser := c.Series("s")
	if len(ser) != 2 || ser[0].Iter != 0 || ser[1].Iter != 1 {
		t.Errorf("Series not sorted by iter: %v", ser)
	}
	snap := c.Snapshot()
	if snap.Spans["sp"].Count != 1 {
		t.Errorf("span count = %d, want 1", snap.Spans["sp"].Count)
	}
	if snap.Spans["sp"].Total < 0 {
		t.Errorf("span total negative: %v", snap.Spans["sp"].Total)
	}

	c.Reset()
	if c.Counter("a.b") != 0 || len(c.Series("s")) != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	c := NewCollector()
	c.Count("n", 1)
	c.Observe("s", 0, 1)
	snap := c.Snapshot()
	c.Count("n", 10)
	c.Observe("s", 1, 2)
	if snap.Counters["n"] != 1 || len(snap.Series["s"]) != 1 {
		t.Error("snapshot aliases live collector state")
	}
}

func TestWritePromDeterministicAndSanitised(t *testing.T) {
	c := NewCollector()
	c.Count("kmeans.iterations", 7)
	c.Gauge("EM.LogLik", -12.5)
	c.Observe("kmeans.sse", 0, 100)
	c.Observe("kmeans.sse", 1, 60)
	c.StartSpan("kmeans.run", NewSpanID(), 0)()

	var a, b strings.Builder
	if err := c.WriteProm(&a); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two WriteProm renders of the same state differ")
	}
	out := a.String()
	for _, want := range []string{
		"multiclust_kmeans_iterations_total 7\n",
		"multiclust_em_loglik -12.5\n",
		"multiclust_kmeans_sse_points 2\n",
		"multiclust_kmeans_sse_first 100\n",
		"multiclust_kmeans_sse_last 60\n",
		"multiclust_kmeans_run_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom dump missing %q in:\n%s", want, out)
		}
	}
}

func TestStripTimingsZeroesOnlySpanDurations(t *testing.T) {
	c := NewCollector()
	c.Count("n", 1)
	c.StartSpan("sp", NewSpanID(), 0)()
	s := c.Snapshot().StripTimings()
	if s.Spans["sp"].Total != 0 {
		t.Error("StripTimings left a nonzero span total")
	}
	if s.Spans["sp"].Count != 1 || s.Counters["n"] != 1 {
		t.Error("StripTimings touched deterministic fields")
	}
	if s.Tree["sp"].Total != 0 || s.Tree["sp"].Count != 1 {
		t.Error("StripTimings mishandled the span tree")
	}
}

func TestDefaultAndContextResolution(t *testing.T) {
	prev := Default()
	defer SetDefault(prev)

	SetDefault(nil)
	if Default() != nil {
		t.Fatal("Default() not nil after SetDefault(nil)")
	}
	if From(context.Background()) != nil {
		t.Fatal("From() should be nil with no default and no ctx recorder")
	}

	def := NewCollector()
	SetDefault(def)
	if From(context.Background()) != Recorder(def) {
		t.Error("From() did not fall back to the default recorder")
	}

	ctxRec := NewCollector()
	ctx := NewContext(context.Background(), ctxRec)
	if From(ctx) != Recorder(ctxRec) {
		t.Error("context recorder must win over the default")
	}
	if FromContext(context.Background()) != nil {
		t.Error("FromContext without a recorder must be nil")
	}
}

func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Error("Tee of no live recorders must be nil (disabled fast path)")
	}
	c := NewCollector()
	if Tee(nil, c) != Recorder(c) {
		t.Error("Tee of one live recorder must return it unwrapped")
	}
	c2 := NewCollector()
	m := Tee(c, c2)
	m.Count("n", 4)
	m.Gauge("g", 1)
	m.Observe("s", 0, 2)
	m.StartSpan("sp", NewSpanID(), 0)()
	for i, cc := range []*Collector{c, c2} {
		if cc.Counter("n") != 4 || len(cc.Series("s")) != 1 {
			t.Errorf("recorder %d missed teed events", i)
		}
		if cc.Snapshot().Spans["sp"].Count != 1 {
			t.Errorf("recorder %d missed teed span", i)
		}
	}
}

func TestTraceWriterEmitsJSONL(t *testing.T) {
	var sb strings.Builder
	tw := NewTraceWriter(&sb)
	tw.Count("a", 2)
	tw.Gauge("g", 0.5)
	tw.Observe("s", 3, 1.5)
	tw.StartSpan("sp", 7, 3)()
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), sb.String())
	}
	wants := []string{
		`{"type":"count","name":"a","delta":2}`,
		`{"type":"gauge","name":"g","value":0.5}`,
		`{"type":"observe","name":"s","iter":3,"value":1.5}`,
		`{"type":"span","name":"sp","id":7,"parent":3,"t_us":`,
	}
	for i, w := range wants {
		if !strings.HasPrefix(lines[i], strings.TrimSuffix(w, "}")) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], w)
		}
	}
}

func TestTraceWriterNonFiniteValues(t *testing.T) {
	var sb strings.Builder
	tw := NewTraceWriter(&sb)
	tw.Gauge("nan", math.NaN())
	tw.Gauge("inf", math.Inf(1))
	out := sb.String()
	if !strings.Contains(out, `"value":"NaN"`) || !strings.Contains(out, `"value":"+Inf"`) {
		t.Errorf("non-finite values not quoted:\n%s", out)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errFail }

var errFail = errors.New("sink failed")

func TestTraceWriterRetainsFirstError(t *testing.T) {
	tw := NewTraceWriter(failWriter{})
	tw.Count("a", 1)
	tw.Count("b", 1)
	if err := tw.Err(); !errors.Is(err, errFail) {
		t.Fatalf("Err() = %v, want wrapped sink error", err)
	}
}
