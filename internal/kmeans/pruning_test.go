package kmeans

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"multiclust/internal/obs"
)

func randomBlobPoints(seed int64, n, dims, blobs int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, blobs)
	for b := range centers {
		row := make([]float64, dims)
		for j := range row {
			row[j] = rng.Float64() * 10
		}
		centers[b] = row
	}
	pts := make([][]float64, n)
	for i := range pts {
		c := centers[rng.Intn(blobs)]
		row := make([]float64, dims)
		for j := range row {
			row[j] = c[j] + rng.NormFloat64()*0.5
		}
		pts[i] = row
	}
	return pts
}

// TestHamerlyMatchesLloyd pins the pruning invariant: for every worker
// count, Hamerly-pruned runs must be byte-identical to Lloyd in labels,
// centers, SSE, and iteration count — the bounds only skip distance
// evaluations that provably cannot change the argmin.
func TestHamerlyMatchesLloyd(t *testing.T) {
	for _, tc := range []struct {
		seed    int64
		n, dims int
		k       int
	}{
		{1, 400, 3, 4},
		{2, 250, 2, 5},
		{3, 600, 5, 3},
		{4, 120, 2, 8},
	} {
		tc := tc
		t.Run(fmt.Sprintf("seed=%d_n=%d_k=%d", tc.seed, tc.n, tc.k), func(t *testing.T) {
			pts := randomBlobPoints(tc.seed, tc.n, tc.dims, tc.k)
			for _, w := range []int{1, 2, 4, 8} {
				lloyd, err := run(context.Background(), pts, Config{K: tc.k, Seed: tc.seed, Restarts: 2, Workers: w}, runOnce)
				if err != nil {
					t.Fatal(err)
				}
				ham, err := Run(pts, Config{K: tc.k, Seed: tc.seed, Restarts: 2, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(lloyd, ham) {
					t.Errorf("workers=%d: Hamerly result diverges from Lloyd (labels equal: %v, SSE %v vs %v, iters %d vs %d)",
						w, reflect.DeepEqual(lloyd.Clustering.Labels, ham.Clustering.Labels),
						lloyd.SSE, ham.SSE, lloyd.Iterations, ham.Iterations)
				}
			}
		})
	}
}

// TestHamerlyTelemetryMatchesLloyd pins the instrumented trajectories: the
// recorded iterations, reassignments, and per-iteration SSE series must be
// byte-identical between the two paths; only distance_computations may —
// and must — differ, with Hamerly doing strictly less work than Lloyd's
// n*k per iteration.
func TestHamerlyTelemetryMatchesLloyd(t *testing.T) {
	pts := randomBlobPoints(11, 500, 3, 4)
	snap := func(once func(context.Context, [][]float64, int, int, [][]float64, int, obs.Recorder) (*Result, error)) (obs.Snapshot, *Result) {
		col := obs.NewCollector()
		ctx := obs.NewContext(context.Background(), col)
		res, err := run(ctx, pts, Config{K: 4, Seed: 11}, once)
		if err != nil {
			t.Fatal(err)
		}
		return col.Snapshot(), res
	}
	ls, lr := snap(runOnce)
	hs, hr := snap(runOnceHamerly)
	for _, k := range []string{"kmeans.iterations", "kmeans.reassignments", "kmeans.restarts"} {
		if ls.Counters[k] != hs.Counters[k] {
			t.Errorf("counter %s: lloyd %d vs hamerly %d", k, ls.Counters[k], hs.Counters[k])
		}
	}
	if !reflect.DeepEqual(ls.Series["kmeans.sse"], hs.Series["kmeans.sse"]) {
		t.Error("per-iteration SSE series diverge")
	}
	ld, hd := ls.Counters["kmeans.distance_computations"], hs.Counters["kmeans.distance_computations"]
	if ld == 0 || hd == 0 {
		t.Fatalf("distance_computations not recorded (lloyd %d, hamerly %d)", ld, hd)
	}
	if hd >= ld {
		t.Errorf("pruning saved nothing: hamerly %d >= lloyd %d distance computations", hd, ld)
	}
	if hr.SSE != lr.SSE || hr.Iterations != lr.Iterations {
		t.Errorf("results diverge: SSE %v vs %v, iters %d vs %d", hr.SSE, lr.SSE, hr.Iterations, lr.Iterations)
	}
}

// counters runs pts through RunContext and through the Lloyd oracle, each
// with its own Collector, and returns the two counter sets.
func counters(t *testing.T, pts [][]float64, cfg Config) (ham, lloyd map[string]int64) {
	t.Helper()
	hamCol, lloydCol := obs.NewCollector(), obs.NewCollector()
	if _, err := RunContext(obs.NewContext(context.Background(), hamCol), pts, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := run(obs.NewContext(context.Background(), lloydCol), pts, cfg, runOnce); err != nil {
		t.Fatal(err)
	}
	return hamCol.Snapshot().Counters, lloydCol.Snapshot().Counters
}

// A pass that reads no bounds costs what Lloyd's does: with MaxIter 1 every
// point is labelled by one full scan, the center separations are never
// needed, and Hamerly counts exactly n·k distances per restart.
func TestHamerlyFirstPassCountsLloydWork(t *testing.T) {
	pts := randomBlobPoints(13, 240, 3, 6)
	for _, k := range []int{1, 6, 12} {
		ham, lloyd := counters(t, pts, Config{K: k, Seed: 13, Restarts: 2, MaxIter: 1, Workers: 2})
		want := int64(2 * len(pts) * k)
		if h, l := ham["kmeans.distance_computations"], lloyd["kmeans.distance_computations"]; h != want || l != want {
			t.Errorf("k=%d: kmeans.distance_computations hamerly %d, lloyd %d, want n·k·restarts = %d", k, h, l, want)
		}
	}
}

// On duplicate points every center separation and bound is 0, so every
// point of every pass after the first fails both prune tests and falls
// through to the full scan; the scan reuses the tightened distance to the
// old center, so such a pass costs Lloyd's n·k plus the k(k-1)/2 center
// separations and nothing more.
func TestHamerlyFallThroughCostsLloydScan(t *testing.T) {
	pts := make([][]float64, 30)
	for i := range pts {
		pts[i] = []float64{2, 7}
	}
	ham, lloyd := counters(t, pts, Config{K: 3, Seed: 4, Restarts: 2, Workers: 2})
	passes := ham["kmeans.iterations"] - ham["kmeans.restarts"]
	if passes == 0 {
		t.Fatal("no pass after the first; the fall-through path did not run")
	}
	if got, want := ham["kmeans.distance_computations"], lloyd["kmeans.distance_computations"]+passes*3; got != want {
		t.Errorf("kmeans.distance_computations = %d, want lloyd %d + %d passes × 3 separations = %d",
			got, lloyd["kmeans.distance_computations"], passes, want)
	}
}

// FuzzHamerlyEqualsLloyd fuzzes the pruning invariant over the input:
// whatever points (n <= 200, d <= 6, coordinates snapped to an 8-step grid
// so ties and duplicates occur), k <= min(n, 12), 1-3 restarts and MaxIter
// the fuzzer finds, RunContext and the Lloyd oracle driven the same way
// (same seeding, same restart selection) return bit-equal labels, centers
// and SSE and the same iteration count, and record the same
// kmeans.iterations, kmeans.reassignments and kmeans.sse trajectories.
// Hamerly never counts more distances than Lloyd plus the k(k-1)/2 center
// separations of each pass after a restart's first.
func FuzzHamerlyEqualsLloyd(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, dims, k, restarts, maxIter uint8, seed int64) {
		d := int(dims)%6 + 1
		n := min(len(raw)/d, 200)
		if n == 0 {
			t.Skip()
		}
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = make([]float64, d)
			for j := range pts[i] {
				pts[i][j] = float64(raw[i*d+j] % 8)
			}
		}
		cfg := Config{K: int(k)%min(n, 12) + 1, Restarts: int(restarts)%3 + 1, MaxIter: int(maxIter), Seed: seed, Workers: 2}
		hamCol, lloydCol := obs.NewCollector(), obs.NewCollector()
		ham, err := RunContext(obs.NewContext(context.Background(), hamCol), pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lloyd, err := run(obs.NewContext(context.Background(), lloydCol), pts, cfg, runOnce)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ham.Clustering.Labels, lloyd.Clustering.Labels) {
			t.Fatalf("labels diverge:\nhamerly %v\nlloyd   %v", ham.Clustering.Labels, lloyd.Clustering.Labels)
		}
		for c := range lloyd.Centers {
			for j, v := range lloyd.Centers[c] {
				if math.Float64bits(ham.Centers[c][j]) != math.Float64bits(v) {
					t.Fatalf("center %d dim %d: hamerly %v, lloyd %v", c, j, ham.Centers[c][j], v)
				}
			}
		}
		if math.Float64bits(ham.SSE) != math.Float64bits(lloyd.SSE) || ham.Iterations != lloyd.Iterations {
			t.Fatalf("SSE %v vs %v, iterations %d vs %d", ham.SSE, lloyd.SSE, ham.Iterations, lloyd.Iterations)
		}
		hs, ls := hamCol.Snapshot(), lloydCol.Snapshot()
		for _, name := range []string{"kmeans.iterations", "kmeans.reassignments"} {
			if hs.Counters[name] != ls.Counters[name] {
				t.Fatalf("%s: hamerly %d, lloyd %d", name, hs.Counters[name], ls.Counters[name])
			}
		}
		sep := (hs.Counters["kmeans.iterations"] - hs.Counters["kmeans.restarts"]) * int64(cfg.K*(cfg.K-1)/2)
		if hd, ld := hs.Counters["kmeans.distance_computations"], ls.Counters["kmeans.distance_computations"]; hd > ld+sep {
			t.Fatalf("kmeans.distance_computations: hamerly %d > lloyd %d + %d center separations", hd, ld, sep)
		}
		hseries, lseries := hs.Series["kmeans.sse"], ls.Series["kmeans.sse"]
		if len(hseries) != len(lseries) {
			t.Fatalf("kmeans.sse: %d samples vs %d", len(hseries), len(lseries))
		}
		for i := range lseries {
			if hseries[i].Iter != lseries[i].Iter || math.Float64bits(hseries[i].Value) != math.Float64bits(lseries[i].Value) {
				t.Fatalf("kmeans.sse sample %d: hamerly %+v, lloyd %+v", i, hseries[i], lseries[i])
			}
		}
	})
}
