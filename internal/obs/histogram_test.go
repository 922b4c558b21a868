// Histogram determinism and rendering, exercised from the real worker
// pool (package obs_test for the same import-cycle reason as race_test.go).
package obs_test

import (
	"strings"
	"testing"

	"multiclust/internal/obs"
	"multiclust/internal/parallel"
)

func TestHistogramBucketWalk(t *testing.T) {
	bounds := obs.HistogramBounds()
	if len(bounds) != obs.NumHistogramBuckets {
		t.Fatalf("got %d bounds, want %d", len(bounds), obs.NumHistogramBuckets)
	}
	if bounds[0] != 1e-6 {
		t.Fatalf("first bound = %g, want 1e-6", bounds[0])
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] != 2*bounds[i-1] {
			t.Fatalf("bound[%d] = %g, want double of %g", i, bounds[i], bounds[i-1])
		}
	}

	c := obs.NewCollector()
	c.Histogram("h", 0)      // at/below the first bound -> bucket 0
	c.Histogram("h", 1e-6)   // exactly on a bound counts into it
	c.Histogram("h", 1.5e-6) // above the first bound -> bucket 1
	c.Histogram("h", -3)     // negative clamps to zero -> bucket 0
	c.Histogram("h", 1e9)    // beyond the last bound -> +Inf bucket
	h, ok := c.HistValue("h")
	if !ok {
		t.Fatal("histogram not recorded")
	}
	if h.Count != 5 {
		t.Fatalf("count = %d, want 5", h.Count)
	}
	if h.Counts[0] != 3 || h.Counts[1] != 1 || h.Counts[obs.NumHistogramBuckets] != 1 {
		t.Fatalf("bucket counts wrong: first=%d second=%d inf=%d",
			h.Counts[0], h.Counts[1], h.Counts[obs.NumHistogramBuckets])
	}
	// Sum: 0 + 1e-6 + 1.5e-6 + 0 + 1e9, each rounded to whole nanoseconds.
	wantNs := int64(1e3) + int64(1.5e3) + int64(1e18)
	if h.SumNs != wantNs {
		t.Fatalf("sum = %d ns, want %d", h.SumNs, wantNs)
	}
}

func TestHistogramPromBlock(t *testing.T) {
	c := obs.NewCollector()
	c.Histogram("jobs.exec_seconds", 0.5e-6) // bucket 0
	c.Histogram("jobs.exec_seconds", 3e-6)   // bucket 2 (le=4e-06)
	var sb strings.Builder
	if err := c.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"multiclust_jobs_exec_seconds_bucket{le=\"1e-06\"} 1\n",
		"multiclust_jobs_exec_seconds_bucket{le=\"2e-06\"} 1\n",
		"multiclust_jobs_exec_seconds_bucket{le=\"4e-06\"} 2\n",
		"multiclust_jobs_exec_seconds_bucket{le=\"+Inf\"} 2\n",
		"multiclust_jobs_exec_seconds_sum 3.5e-06\n",
		"multiclust_jobs_exec_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom dump missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative: the +Inf line carries the total count.
	if strings.Count(out, "multiclust_jobs_exec_seconds_bucket") != obs.NumHistogramBuckets+1 {
		t.Fatalf("want %d bucket lines, got %d",
			obs.NumHistogramBuckets+1, strings.Count(out, "multiclust_jobs_exec_seconds_bucket"))
	}
}

// hammerHist folds a deterministic per-index latency set into c from
// `workers` goroutines; every recorded value is a pure function of the
// task index, so the aggregate must not depend on scheduling.
func hammerHist(c *obs.Collector, workers int) {
	const tasks = 500
	parallel.Each(tasks, workers, func(i int) {
		c.Histogram("hist.mixed", float64(i%13)*1e-4)
		c.Histogram("hist.fine", float64(i%7)*3e-7)
	})
}

// TestHistogramSchedulingIndependence is the satellite determinism test:
// the full WriteProm histogram blocks — sum included, no stripping —
// must be byte-identical at workers 1/2/4/8 (under -race in CI), because
// bucket counts and the integer-nanosecond sum are both additive.
func TestHistogramSchedulingIndependence(t *testing.T) {
	dumps := map[int]string{}
	for _, workers := range []int{1, 2, 4, 8} {
		c := obs.NewCollector()
		hammerHist(c, workers)
		var sb strings.Builder
		if err := c.WriteProm(&sb); err != nil {
			t.Fatal(err)
		}
		dumps[workers] = sb.String()
	}
	for _, workers := range []int{2, 4, 8} {
		if dumps[workers] != dumps[1] {
			t.Errorf("workers=%d histogram dump differs from workers=1:\n--- w1 ---\n%s--- w%d ---\n%s",
				workers, dumps[1], workers, dumps[workers])
		}
	}
	if !strings.Contains(dumps[1], "multiclust_hist_mixed_count 500\n") ||
		!strings.Contains(dumps[1], "multiclust_hist_fine_count 500\n") {
		t.Fatalf("dump missing expected histogram lines:\n%s", dumps[1])
	}
}

// StripTimings must zero everything wall-clock-derived in a histogram —
// bucket placement and sum — while keeping the observation count, so
// golden dumps of instrumented runs stay stable when real durations flow
// through the histograms.
func TestHistogramStripTimings(t *testing.T) {
	c := obs.NewCollector()
	c.Histogram("h", 0.25)
	c.Histogram("h", 0.003)
	snap := c.Snapshot().StripTimings()
	h, ok := snap.Hists["h"]
	if !ok {
		t.Fatal("stripped snapshot lost the histogram")
	}
	if h.Count != 2 {
		t.Fatalf("stripped count = %d, want 2", h.Count)
	}
	if h.SumNs != 0 {
		t.Fatalf("stripped sum = %d, want 0", h.SumNs)
	}
	for i, n := range h.Counts {
		if n != 0 {
			t.Fatalf("stripped bucket %d = %d, want 0", i, n)
		}
	}
	var sb strings.Builder
	if err := snap.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "multiclust_h_sum 0\n") ||
		!strings.Contains(sb.String(), "multiclust_h_count 2\n") {
		t.Fatalf("stripped prom dump wrong:\n%s", sb.String())
	}
}
