// The Collector's concurrency contract, exercised from the real worker
// pool. This lives in package obs_test because internal/parallel imports
// internal/obs (task/panic counters); an in-package test would create an
// import cycle.
package obs_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"multiclust/internal/obs"
	"multiclust/internal/parallel"
)

// hammer drives one deterministic seeded workload into c from `workers`
// goroutines via parallel.Each. Everything recorded is a pure function of
// the task index, so the aggregate state must not depend on scheduling.
func hammer(c *obs.Collector, workers int) {
	const tasks = 400
	parallel.Each(tasks, workers, func(i int) {
		c.Count("hammer.tasks", 1)
		c.Count("hammer.weighted", int64(i%7))
		c.Observe("hammer.series", i, float64(i*i%101))
		end := c.StartSpan("hammer.span", obs.NewSpanID(), 0)
		c.Gauge("hammer.fixed", 42)
		end()
	})
}

// TestCollectorSchedulingIndependence is the satellite concurrency test:
// hammer counters/series/spans at workers 1/2/4/8 (under -race in CI) and
// require the exported dump — timings stripped — to be byte-identical
// across worker counts.
func TestCollectorSchedulingIndependence(t *testing.T) {
	dumps := map[int]string{}
	for _, workers := range []int{1, 2, 4, 8} {
		c := obs.NewCollector()
		hammer(c, workers)

		if got := c.Counter("hammer.tasks"); got != 400 {
			t.Fatalf("workers=%d: tasks counter = %d, want 400", workers, got)
		}
		var sb strings.Builder
		if err := c.Snapshot().StripTimings().WriteProm(&sb); err != nil {
			t.Fatal(err)
		}
		dumps[workers] = sb.String()
	}
	for _, workers := range []int{2, 4, 8} {
		if dumps[workers] != dumps[1] {
			t.Errorf("workers=%d dump differs from workers=1:\n--- w1 ---\n%s--- w%d ---\n%s",
				workers, dumps[1], workers, dumps[workers])
		}
	}
	// The dump must actually carry the recorded state, not vacuously match.
	if !strings.Contains(dumps[1], "multiclust_hammer_tasks_total 400\n") ||
		!strings.Contains(dumps[1], "multiclust_hammer_span_count 400\n") ||
		!strings.Contains(dumps[1], "multiclust_hammer_series_points 400\n") {
		t.Fatalf("dump missing expected lines:\n%s", dumps[1])
	}
}

// Concurrent mixed-method access, including snapshots taken mid-flight —
// pure -race fodder.
func TestCollectorConcurrentSnapshot(t *testing.T) {
	c := obs.NewCollector()
	parallel.Each(200, 8, func(i int) {
		c.Count("n", 1)
		c.Observe("s", i, float64(i))
		if i%10 == 0 {
			_ = c.Snapshot()
			var sb strings.Builder
			_ = c.WriteProm(&sb)
			_ = c.WriteChromeTrace(&sb, "")
		}
		c.StartSpan(fmt.Sprintf("span.%d", i%3), obs.NewSpanID(), 0)()
	})
	if c.Counter("n") != 200 {
		t.Fatalf("n = %d, want 200", c.Counter("n"))
	}
	snap := c.Snapshot()
	var spanCount int64
	for _, k := range []string{"span.0", "span.1", "span.2"} {
		spanCount += snap.Spans[k].Count
	}
	if spanCount != 200 {
		t.Fatalf("span count = %d, want 200", spanCount)
	}
}

// The TraceWriter must also tolerate concurrent producers: lines may
// interleave in any order but each line stays intact.
func TestTraceWriterConcurrent(t *testing.T) {
	var sb syncBuilder
	tw := obs.NewTraceWriter(&sb)
	parallel.Each(100, 4, func(i int) {
		tw.Count("c", int64(i))
		tw.Observe("s", i, float64(i))
	})
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 200 {
		t.Fatalf("got %d lines, want 200", len(lines))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, `{"type":`) || !strings.HasSuffix(l, "}") {
			t.Fatalf("torn trace line: %q", l)
		}
	}
}

// Concurrent span emission through the TraceWriter: lines may land in
// any order (a parent's line follows its children's), but every line
// must be intact JSON, span ids must be unique, and every child's parent
// field must resolve to the shared root — the invariants offline
// consumers (WriteChromeTrace) rebuild the tree from.
func TestTraceWriterConcurrentSpanOrdering(t *testing.T) {
	var sb syncBuilder
	tw := obs.NewTraceWriter(&sb)
	ctx, endRoot := obs.SpanCtx(context.Background(), tw, "root.run")
	parallel.Each(64, 8, func(i int) {
		_, end := obs.SpanCtx(ctx, tw, "child.work")
		end()
	})
	endRoot()
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	type line struct {
		Type   string `json:"type"`
		Name   string `json:"name"`
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
	}
	var rootID uint64
	ids := map[uint64]bool{}
	var children []line
	for _, raw := range strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n") {
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("torn or invalid trace line %q: %v", raw, err)
		}
		if l.Type != "span" {
			t.Fatalf("unexpected event type %q", l.Type)
		}
		if ids[l.ID] {
			t.Fatalf("duplicate span id %d", l.ID)
		}
		ids[l.ID] = true
		switch l.Name {
		case "root.run":
			rootID = l.ID
		case "child.work":
			children = append(children, l)
		default:
			t.Fatalf("unexpected span name %q", l.Name)
		}
	}
	if rootID == 0 {
		t.Fatal("root span line missing")
	}
	if len(children) != 64 {
		t.Fatalf("got %d child spans, want 64", len(children))
	}
	for _, c := range children {
		if c.Parent != rootID {
			t.Fatalf("child span parent = %d, want root id %d", c.Parent, rootID)
		}
	}
}

// syncBuilder is a goroutine-safe strings.Builder stand-in. TraceWriter
// serialises writes itself, but the test reads it afterwards, and -race
// is happier with explicit ownership.
type syncBuilder struct {
	sb strings.Builder
}

func (s *syncBuilder) Write(p []byte) (int, error) { return s.sb.Write(p) }
func (s *syncBuilder) String() string              { return s.sb.String() }
