package multiclust_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"multiclust"
	"multiclust/internal/obs"
)

// Overhead pin for the observability layer: the hot loops must cost the
// same with no recorder installed as they did before instrumentation.
// The comparative benchmarks below measure the disabled path (nil
// recorder) against an active in-memory Collector on the k-means and EM
// hot loops; run them with
//
//	go test -bench 'Obs(KMeans|EM)' -benchmem .
//
// and compare ns/op: the nil-recorder column is the shipped default and
// must stay within 1% of the pre-instrumentation baseline (the Collector
// column shows what opting in costs). The allocation test at the bottom
// turns the sharpest part of that pin — the disabled path performs ZERO
// allocations — into a hard failure instead of a number to eyeball.

// benchObsPoints builds a deterministic blob mixture sized like the hot
// loops the instrumentation rides in.
func benchObsPoints(n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(11))
	pts := make([][]float64, n)
	for i := range pts {
		row := make([]float64, dim)
		center := float64(i % 3 * 4)
		for d := range row {
			row[d] = center + rng.NormFloat64()
		}
		pts[i] = row
	}
	return pts
}

// withRecorder installs rec as the process default for one benchmark and
// restores the previous recorder afterwards.
func withRecorder(b *testing.B, rec *multiclust.Collector) {
	b.Helper()
	prev := multiclust.RecorderDefault()
	multiclust.SetRecorder(rec)
	b.Cleanup(func() { multiclust.SetRecorder(prev) })
}

func benchKMeans(b *testing.B, rec *multiclust.Collector, workers int) {
	withRecorder(b, rec)
	pts := benchObsPoints(240, 4)
	cfg := multiclust.KMeansConfig{K: 3, MaxIter: 25, Restarts: 2, Seed: 7, Workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multiclust.KMeans(pts, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObsKMeansNilRecorder(b *testing.B) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchKMeans(b, nil, w) })
	}
}

func BenchmarkObsKMeansCollector(b *testing.B) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchKMeans(b, multiclust.NewCollector(), w) })
	}
}

func benchEM(b *testing.B, rec *multiclust.Collector) {
	withRecorder(b, rec)
	pts := benchObsPoints(200, 3)
	cfg := multiclust.EMConfig{K: 3, MaxIter: 40, Seed: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multiclust.EM(pts, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObsEMNilRecorder(b *testing.B) { benchEM(b, nil) }
func BenchmarkObsEMCollector(b *testing.B)   { benchEM(b, multiclust.NewCollector()) }

// TestDisabledRecorderHotPathDoesNotAllocate calls each recording method
// on the nil Collector a hot path resolves when no recorder is installed,
// opens a span with SpanCtx, and replays the exact instrumentation
// sequence the k-means and EM iteration loops execute — resolve the
// recorder once, then per iteration a span, counters and a per-iteration
// observation — and fails if any of it allocates. This is the mechanism
// behind the <=1% overhead budget: a zero-allocation nil path is a
// handful of pointer tests the branch predictor eats for free.
func TestDisabledRecorderHotPathDoesNotAllocate(t *testing.T) {
	prev := multiclust.RecorderDefault()
	multiclust.SetRecorder(nil)
	defer multiclust.SetRecorder(prev)
	ctx := context.Background()
	rec := obs.From(ctx)
	if rec != nil {
		t.Fatal("a recorder resolved with none installed")
	}
	cases := map[string]func(){
		"count":     func() { rec.Count("kmeans.iterations", 1) },
		"gauge":     func() { rec.Gauge("metaclust.mean_pairwise", 0.5) },
		"observe":   func() { rec.Observe("kmeans.sse", 3, 42.5) },
		"histogram": func() { rec.Histogram("jobs.exec_seconds", 0.0042) },
		"spanctx": func() {
			_, end := obs.SpanCtx(ctx, nil, "kmeans.run")
			end()
		},
		"kmeans-loop": func() {
			rec := obs.From(ctx)
			_, end := obs.SpanCtx(ctx, rec, "kmeans.run")
			for iter := 0; iter < 8; iter++ {
				rec.Count("kmeans.iterations", 1)
				rec.Count("kmeans.reassignments", 17)
				rec.Observe("kmeans.sse", iter, 42.5)
			}
			rec.Histogram("jobs.exec_seconds", 0.0042)
			end()
		},
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s: disabled-recorder path allocates %.1f times per run, want 0", name, allocs)
		}
	}
}
