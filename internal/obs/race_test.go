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
		_, end := obs.SpanCtx(context.Background(), c, "hammer.span")
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
		_, end := obs.SpanCtx(context.Background(), c, fmt.Sprintf("span.%d", i%3))
		end()
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

// Concurrent span emission into one Collector: span ids must be unique,
// and every child opened from parallel workers must render with the
// shared root as its parent and on the root's track.
func TestCollectorConcurrentSpanTree(t *testing.T) {
	c := obs.NewCollector()
	ctx, endRoot := obs.SpanCtx(context.Background(), c, "root.run")
	parallel.Each(64, 8, func(i int) {
		_, end := obs.SpanCtx(ctx, c, "child.work")
		end()
	})
	endRoot()
	var out strings.Builder
	if err := c.WriteChromeTrace(&out, ""); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Tid  uint64 `json:"tid"`
			Args struct {
				ID     uint64 `json:"id"`
				Parent uint64 `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	rootID := uint64(obs.SpanFromContext(ctx))
	ids := map[uint64]bool{}
	children := 0
	for _, ev := range doc.TraceEvents {
		if ids[ev.Args.ID] {
			t.Fatalf("duplicate span id %d", ev.Args.ID)
		}
		ids[ev.Args.ID] = true
		switch ev.Name {
		case "root.run":
			if ev.Args.ID != rootID {
				t.Fatalf("root span id = %d, want %d", ev.Args.ID, rootID)
			}
		case "child.work":
			children++
			if ev.Args.Parent != rootID || ev.Tid != rootID {
				t.Fatalf("child span parent %d tid %d, want root id %d", ev.Args.Parent, ev.Tid, rootID)
			}
		default:
			t.Fatalf("unexpected span name %q", ev.Name)
		}
	}
	if !ids[rootID] || children != 64 {
		t.Fatalf("root kept %v, %d child spans; want the root and 64", ids[rootID], children)
	}
}
