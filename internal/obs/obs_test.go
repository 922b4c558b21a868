package obs

import (
	"context"
	"strings"
	"testing"
)

// The recording methods are the nil-guarded helpers: on a nil Collector
// they must not panic and must not do anything observable.
func TestHelpersNilRecorderAreNoOps(t *testing.T) {
	var c *Collector
	c.Count("x", 3)
	c.Gauge("x", 1.5)
	c.Observe("x", 0, 2.5)
	c.Histogram("x", 0.001)
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

// The zero-overhead contract: every recording method on a nil Collector,
// SpanCtx with a nil Collector, and recorder resolution itself perform
// zero heap allocations.
func TestNilRecorderPathDoesNotAllocate(t *testing.T) {
	ctx := context.Background()
	var c *Collector
	cases := map[string]func(){
		"count":     func() { c.Count("kmeans.iterations", 1) },
		"gauge":     func() { c.Gauge("metaclust.mean_pairwise", 0.5) },
		"observe":   func() { c.Observe("kmeans.sse", 3, 12.5) },
		"histogram": func() { c.Histogram("jobs.exec_seconds", 0.004) },
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
	_, end := SpanCtx(context.Background(), c, "sp")
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
	_, end := SpanCtx(context.Background(), c, "kmeans.run")
	end()

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
	_, end := SpanCtx(context.Background(), c, "sp")
	end()
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
	if From(context.Background()) != def {
		t.Error("From() did not fall back to the default recorder")
	}

	ctxRec := NewCollector()
	ctx := NewContext(context.Background(), ctxRec)
	if From(ctx) != ctxRec {
		t.Error("context recorder must win over the default")
	}
	if FromContext(context.Background()) != nil {
		t.Error("FromContext without a recorder must be nil")
	}
}
