package stream

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"multiclust/internal/core"
	"multiclust/internal/obs"
)

// blobRows draws n rows around k well-separated centers, deterministic in
// seed, full-width d.
func blobRows(n, d, k int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		c := i % k
		row := make([]float64, d)
		for j := range row {
			row[j] = 10*float64(c) + rng.NormFloat64()
		}
		rows[i] = row
	}
	return rows
}

func TestNewValidation(t *testing.T) {
	if _, err := NewMiniBatch(MiniBatchConfig{K: 0}); !errors.Is(err, core.ErrInvalidInput) {
		t.Fatalf("NewMiniBatch(K=0) err = %v, want ErrInvalidInput", err)
	}
	if _, err := NewEnsemble(EnsembleConfig{K: 2, PerChunk: 2, MetaClusters: 5}); !errors.Is(err, core.ErrInvalidInput) {
		t.Fatalf("NewEnsemble(MetaClusters>PerChunk) err = %v, want ErrInvalidInput", err)
	}
	if _, err := NewCoEM(CoEMConfig{K: 2, Forgetting: 1.5}); !errors.Is(err, core.ErrInvalidInput) {
		t.Fatalf("NewCoEM(Forgetting>1) err = %v, want ErrInvalidInput", err)
	}
}

func TestPushTypedErrors(t *testing.T) {
	m, err := NewMiniBatch(MiniBatchConfig{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Push(nil); !errors.Is(err, core.ErrEmptyDataset) {
		t.Fatalf("empty chunk err = %v, want ErrEmptyDataset", err)
	}
	if err := m.Push([][]float64{{1}}); !errors.Is(err, core.ErrInvalidInput) {
		t.Fatalf("first chunk smaller than K err = %v, want ErrInvalidInput", err)
	}
	if err := m.Push(blobRows(8, 2, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Push([][]float64{{1, 2, 3}}); !errors.Is(err, core.ErrShape) {
		t.Fatalf("dim mismatch err = %v, want ErrShape", err)
	}
	if got := m.RowsSeen(); got != 8 {
		t.Fatalf("rejected chunks must not advance RowsSeen: got %d, want 8", got)
	}
}

func TestBoundaryCancellationLeavesStateIntact(t *testing.T) {
	m, _ := NewMiniBatch(MiniBatchConfig{K: 2, Seed: 1})
	if err := m.Push(blobRows(10, 2, 2, 1)); err != nil {
		t.Fatal(err)
	}
	before, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.PushContext(ctx, blobRows(10, 2, 2, 2)); !errors.Is(err, core.ErrInterrupted) {
		t.Fatalf("cancelled push err = %v, want ErrInterrupted", err)
	}
	after, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if after.Chunks != before.Chunks || after.RowsSeen != before.RowsSeen {
		t.Fatalf("cancelled push mutated state: before %+v after %+v", before, after)
	}
}

func TestSnapshotEmptyStream(t *testing.T) {
	m, _ := NewMiniBatch(MiniBatchConfig{K: 2})
	if _, err := m.Snapshot(); !errors.Is(err, core.ErrEmptyDataset) {
		t.Fatalf("empty snapshot err = %v, want ErrEmptyDataset", err)
	}
	e, _ := NewEnsemble(EnsembleConfig{K: 2})
	if _, err := e.Snapshot(); !errors.Is(err, core.ErrEmptyDataset) {
		t.Fatalf("empty ensemble snapshot err = %v, want ErrEmptyDataset", err)
	}
	c, _ := NewCoEM(CoEMConfig{K: 2})
	if _, err := c.Snapshot(); !errors.Is(err, core.ErrEmptyDataset) {
		t.Fatalf("empty co-EM snapshot err = %v, want ErrEmptyDataset", err)
	}
}

func TestStreamCounters(t *testing.T) {
	col := obs.NewCollector()
	ctx := obs.NewContext(context.Background(), col)
	m, _ := NewMiniBatch(MiniBatchConfig{K: 2, Seed: 3})
	for i := 0; i < 3; i++ {
		if err := m.PushContext(ctx, blobRows(10, 2, 2, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.SnapshotContext(ctx); err != nil {
		t.Fatal(err)
	}
	if got := col.Counter("stream.chunks"); got != 3 {
		t.Fatalf("stream.chunks = %d, want 3", got)
	}
	if got := col.Counter("stream.rows_seen"); got != 30 {
		t.Fatalf("stream.rows_seen = %d, want 30", got)
	}
	if got := col.Counter("stream.snapshots"); got != 1 {
		t.Fatalf("stream.snapshots = %d, want 1", got)
	}
}

func TestMiniBatchReseedsStarvedCentroid(t *testing.T) {
	col := obs.NewCollector()
	ctx := obs.NewContext(context.Background(), col)
	m, _ := NewMiniBatch(MiniBatchConfig{K: 2, Seed: 7, StarveAfter: 2})
	// First chunk has two blobs, so both centroids start alive.
	if err := m.PushContext(ctx, blobRows(12, 2, 2, 1)); err != nil {
		t.Fatal(err)
	}
	// Every later chunk sits near blob 0 only; the far centroid starves
	// after StarveAfter consecutive all-blob-0 chunks and must be reseeded
	// onto a chunk row.
	oneBlob := func(seed int64) [][]float64 {
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]float64, 10)
		for i := range rows {
			rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		return rows
	}
	for i := int64(0); i < 4; i++ {
		if err := m.PushContext(ctx, oneBlob(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := m.SnapshotContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Reseeds == 0 {
		t.Fatal("starved centroid was never reseeded")
	}
	if got := col.Counter("stream.reseeds"); got != snap.Reseeds {
		t.Fatalf("stream.reseeds counter = %d, snapshot says %d", got, snap.Reseeds)
	}
	// The reseeded centroid lands on a chunk row near blob 0, so both
	// centroids are now close to the data: the last chunk's SSE per row
	// should be small rather than the ~100 of a 10-away dead centroid.
	if snap.LastSSE/10 > 50 {
		t.Fatalf("reseed did not move the dead centroid: per-row SSE %v", snap.LastSSE/10)
	}
}

// A starved centroid whose chunks hold only rows at distance 0 has no row
// to draw: each draw fails whatever its seed, so it is made once, counted
// in Reseeds, moves nothing and counts no retry.
func TestMiniBatchStarvedDrawFindsNoRow(t *testing.T) {
	col := obs.NewCollector()
	ctx := obs.NewContext(context.Background(), col)
	m, _ := NewMiniBatch(MiniBatchConfig{K: 2, Seed: 7, StarveAfter: 1})
	first := [][]float64{{0, 0}, {0, 0}, {0, 0}, {10, 10}, {10, 10}, {10, 10}}
	if err := m.PushContext(ctx, first); err != nil {
		t.Fatal(err)
	}
	before, _ := m.Snapshot()
	for i := 0; i < 3; i++ {
		if err := m.PushContext(ctx, [][]float64{{0, 0}, {0, 0}, {0, 0}, {0, 0}}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := m.SnapshotContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Reseeds != 3 {
		t.Errorf("Reseeds = %d, want 3 draws", snap.Reseeds)
	}
	if got := col.Counter("stream.reseeds"); got != 0 {
		t.Errorf("stream.reseeds = %d, want 0: no draw found a row", got)
	}
	if got := col.Counter("robust.degenerate_retries"); got != 0 {
		t.Errorf("robust.degenerate_retries = %d, want 0: no seed can change a failed draw", got)
	}
	if !reflect.DeepEqual(snap.Centers, before.Centers) {
		t.Errorf("centers moved: %v, want %v", snap.Centers, before.Centers)
	}
}

// TestWeightedPickSeedIndependentFailure pins what lets the reseed draw
// go without retries: over weights that are not negative, including
// signed zeros, tiny, huge, infinite and NaN entries, weightedPick never
// picks a weight that is not > 0, fails (-1) exactly when no weight is
// > 0, and so fails or succeeds alike on seeds s, s+1 and s+2.
func TestWeightedPickSeedIndependentFailure(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), 1e-300, 1, 1e308, math.Inf(1), math.NaN()}
	gen := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		w := make([]float64, 1+gen.Intn(8))
		positive := false
		for i := range w {
			w[i] = values[gen.Intn(len(values))]
			positive = positive || w[i] > 0
		}
		s := gen.Int63()
		for a := int64(0); a < 3; a++ {
			i := weightedPick(rand.New(rand.NewSource(s+a)), w)
			if i >= 0 && !(w[i] > 0) {
				t.Fatalf("weights %v seed %d: picked index %d of weight %v", w, s+a, i, w[i])
			}
			if (i < 0) == positive {
				t.Fatalf("weights %v seed %d: pick %d, but a weight > 0 exists: %v", w, s+a, i, positive)
			}
		}
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	m, _ := NewMiniBatch(MiniBatchConfig{K: 2, Seed: 5})
	if err := m.Push(blobRows(10, 3, 2, 1)); err != nil {
		t.Fatal(err)
	}
	a, _ := m.Snapshot()
	a.Centers[0][0] = 1e9
	a.Counts[0] = -1
	b, _ := m.Snapshot()
	if b.Centers[0][0] == 1e9 || b.Counts[0] == -1 {
		t.Fatal("snapshot aliases learner state")
	}
}

func TestEnsembleWindowEviction(t *testing.T) {
	e, err := NewEnsemble(EnsembleConfig{K: 2, PerChunk: 4, MetaClusters: 2, Window: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if err := e.Push(blobRows(10, 2, 2, i)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.WindowChunks != 2 || snap.Evicted != 1 || snap.Chunks != 3 {
		t.Fatalf("window bookkeeping: %+v", snap)
	}
	if snap.WindowRows != 20 {
		t.Fatalf("WindowRows = %d, want 20", snap.WindowRows)
	}
	if len(snap.MetaLabels) != 2*4 {
		t.Fatalf("MetaLabels over %d solutions, want 8", len(snap.MetaLabels))
	}
	if len(snap.Representatives) != 2 {
		t.Fatalf("representatives = %d, want 2", len(snap.Representatives))
	}
	for _, rep := range snap.Representatives {
		if err := rep.Validate(snap.WindowRows); err != nil {
			t.Fatalf("representative invalid over window rows: %v", err)
		}
	}
}

func TestCoEMStreamBasics(t *testing.T) {
	c, err := NewCoEM(CoEMConfig{K: 2, Seed: 13, Forgetting: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Push(blobRows(20, 4, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Push(blobRows(15, 4, 2, 2)); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.LastChunkRows != 15 || snap.RowsSeen != 35 || snap.Chunks != 2 {
		t.Fatalf("bookkeeping: %+v", snap)
	}
	if snap.Agreement < 0 || snap.Agreement > 1 {
		t.Fatalf("agreement %v outside [0, 1]", snap.Agreement)
	}
	if err := snap.Clustering.Validate(15); err != nil {
		t.Fatalf("consensus clustering invalid: %v", err)
	}
	if err := snap.ModelA.Validate(); err != nil {
		t.Fatalf("model A invalid: %v", err)
	}
	if err := snap.ModelB.Validate(); err != nil {
		t.Fatalf("model B invalid: %v", err)
	}
	// One-column rows cannot split into two views.
	c2, _ := NewCoEM(CoEMConfig{K: 1})
	if err := c2.Push([][]float64{{1}, {2}}); !errors.Is(err, core.ErrShape) {
		t.Fatalf("1-dim co-EM err = %v, want ErrShape", err)
	}
}

func TestResetClearsState(t *testing.T) {
	m, _ := NewMiniBatch(MiniBatchConfig{K: 2, Seed: 1})
	if err := m.Push(blobRows(10, 2, 2, 1)); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if m.RowsSeen() != 0 || m.Chunks() != 0 {
		t.Fatal("reset kept bookkeeping")
	}
	if _, err := m.Snapshot(); !errors.Is(err, core.ErrEmptyDataset) {
		t.Fatal("reset stream should have no snapshot")
	}
	// A reset learner accepts a different dimensionality.
	if err := m.Push(blobRows(10, 5, 2, 2)); err != nil {
		t.Fatal(err)
	}
}
