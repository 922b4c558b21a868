package stream

import (
	"context"
	"fmt"
	"math/rand"

	"multiclust/internal/core"
	"multiclust/internal/kmeans"
	"multiclust/internal/obs"
)

// MiniBatchConfig controls a mini-batch k-means stream.
type MiniBatchConfig struct {
	K       int
	Seed    int64
	Workers int // parallelism; <=0 resolves via internal/parallel
	// MaxIter and Restarts configure the first-chunk batch solve that
	// initializes the centers (kmeans.Config defaults apply when zero).
	MaxIter  int
	Restarts int
	// StarveAfter is the number of consecutive chunks a centroid may go
	// without a single assignment before it is reseeded (default 3).
	StarveAfter int
}

func (cfg MiniBatchConfig) withDefaults() MiniBatchConfig {
	if cfg.StarveAfter <= 0 {
		cfg.StarveAfter = 3
	}
	return cfg
}

// KMeansSnapshot is the state of a mini-batch k-means stream at one point
// in the chunk sequence. Centers and Counts are deep copies; mutating a
// snapshot never perturbs the learner.
type KMeansSnapshot struct {
	Centers    [][]float64 // current centroid positions
	Counts     []int64     // lifetime assignment mass per centroid (learning-rate denominators)
	LastLabels []int       // assignment of the most recent chunk's rows
	LastSSE    float64     // SSE of the most recent chunk against its assignment
	RowsSeen   int64
	Chunks     int
	// Reseeds counts reseed draws: one per centroid that reached
	// StarveAfter starved chunks, a draw that found no row at a positive
	// distance and moved nothing included (the counter stream.reseeds
	// counts only moves). Draw r is seeded Seed+r.
	Reseeds int64
}

// MiniBatch is incremental k-means over a chunked row stream (Sculley
// 2010 web-scale k-means, grafted onto this repo's deterministic batch
// core): the first chunk is solved with the batch kmeans.RunContext —
// so a single-chunk stream is byte-identical to the batch algorithm —
// and every later chunk is assigned with the Hamerly-style pruned
// kmeans.AssignPruned scan, then folded into the centroids with
// per-centroid decaying learning rates η_c = 1/count_c. Centroids starved
// for StarveAfter consecutive chunks are reseeded deterministically with
// one D²-weighted draw from the current chunk, seeded Seed+Reseeds. Not
// safe for concurrent use; the job engine serializes pushes.
type MiniBatch struct {
	cfg MiniBatchConfig

	d          int
	centers    [][]float64
	counts     []int64
	starved    []int // consecutive fully-starved chunks per centroid
	reseeds    int64
	lastLabels []int
	lastSSE    float64
	rowsSeen   int64
	chunks     int
}

// NewMiniBatch validates cfg and returns an empty mini-batch stream.
func NewMiniBatch(cfg MiniBatchConfig) (*MiniBatch, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("stream: invalid K=%d: %w", cfg.K, core.ErrInvalidInput)
	}
	return &MiniBatch{cfg: cfg.withDefaults()}, nil
}

// Push appends one chunk of rows; see PushContext.
func (m *MiniBatch) Push(rows [][]float64) error {
	return m.PushContext(context.Background(), rows)
}

// PushContext appends one chunk of rows to the stream. The context is
// polled at the chunk boundary and threaded into the first chunk's batch
// solve; an interrupted push either rejects the chunk outright (boundary)
// or retains the inner solver's best-so-far state, and in both cases the
// error wraps core.ErrInterrupted while the learner stays consistent.
func (m *MiniBatch) PushContext(ctx context.Context, rows [][]float64) error {
	if err := boundary(ctx); err != nil {
		return err
	}
	d, err := checkChunk(rows, m.d)
	if err != nil {
		return err
	}
	rec := obs.From(ctx)
	ctx, end := obs.SpanCtx(ctx, rec, "stream.minibatch.push")
	defer end()

	if m.chunks == 0 {
		if len(rows) < m.cfg.K {
			return fmt.Errorf("stream: first chunk has %d rows, need at least K=%d: %w", len(rows), m.cfg.K, core.ErrInvalidInput)
		}
		res, kerr := kmeans.RunContext(ctx, rows, kmeans.Config{
			K: m.cfg.K, Seed: m.cfg.Seed, Workers: m.cfg.Workers,
			MaxIter: m.cfg.MaxIter, Restarts: m.cfg.Restarts,
		})
		if res == nil {
			return kerr
		}
		m.d = d
		m.centers = res.Centers
		m.counts = make([]int64, m.cfg.K)
		m.starved = make([]int, m.cfg.K)
		for _, c := range res.Clustering.Labels {
			m.counts[c]++
		}
		m.lastLabels = res.Clustering.Labels
		m.lastSSE = res.SSE
		m.rowsSeen += int64(len(rows))
		m.chunks++
		countChunk(rec, len(rows))
		return kerr // best-so-far on interruption; nil otherwise
	}

	labels, sqd := kmeans.AssignPruned(rows, m.centers, m.cfg.Workers, rec)
	// Fold the chunk into the centroids serially in row order: counts are
	// the learning-rate denominators, so centroid c takes a step of size
	// 1/count_c toward each assigned row — early rows move centers a lot,
	// late rows barely at all.
	var sse float64
	perChunk := make([]int64, m.cfg.K)
	for i, c := range labels {
		m.counts[c]++
		perChunk[c]++
		eta := 1 / float64(m.counts[c])
		ctr := m.centers[c]
		for j, v := range rows[i] {
			ctr[j] += eta * (v - ctr[j])
		}
		sse += sqd[i]
	}
	m.reseedStarved(rec, perChunk, rows, sqd)
	m.lastLabels = labels
	m.lastSSE = sse
	m.rowsSeen += int64(len(rows))
	m.chunks++
	countChunk(rec, len(rows))
	return nil
}

// reseedStarved advances the starvation counters from the chunk's
// per-centroid assignment mass and relocates any centroid starved for
// StarveAfter consecutive chunks to one D²-weighted draw from the current
// chunk, seeded Seed+reseeds. The draw is not retried: weightedPick fails
// only when no row of the chunk lies at a positive distance, whatever the
// seed, so the centroid stays starved and the next chunk tries again.
func (m *MiniBatch) reseedStarved(rec *obs.Collector, perChunk []int64, rows [][]float64, sqd []float64) {
	for c := range perChunk {
		if perChunk[c] > 0 {
			m.starved[c] = 0
			continue
		}
		m.starved[c]++
		if m.starved[c] < m.cfg.StarveAfter {
			continue
		}
		idx := weightedPick(rand.New(rand.NewSource(m.cfg.Seed+m.reseeds)), sqd)
		m.reseeds++
		if idx < 0 {
			continue
		}
		copy(m.centers[c], rows[idx])
		m.counts[c] = 1
		m.starved[c] = 0
		rec.Count(cntReseeds, 1)
	}
}

// weightedPick draws an index with probability proportional to the weights
// (the kmeans++ D² rule). For weights that are not negative, as squared
// distances are not, it never returns an index whose weight is not > 0 and
// it returns -1 exactly when no weight is > 0, whatever the rng.
func weightedPick(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return -1
	}
	r := rng.Float64() * total
	for i, w := range weights {
		r -= w
		if r < 0 {
			return i
		}
	}
	// Float accumulation can leave r at a hair above zero; take the last
	// positive-weight index, matching the batch kmeans++ scan.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return -1
}

// Snapshot returns the current state; see SnapshotContext.
func (m *MiniBatch) Snapshot() (*KMeansSnapshot, error) {
	return m.SnapshotContext(context.Background())
}

// SnapshotContext returns a deep copy of the learner state. Snapshots are
// byte-identical for the same (config, chunk sequence) at any worker
// count. An empty stream has no model yet: core.ErrEmptyDataset.
func (m *MiniBatch) SnapshotContext(ctx context.Context) (*KMeansSnapshot, error) {
	if m.chunks == 0 {
		return nil, fmt.Errorf("stream: snapshot of an empty stream: %w", core.ErrEmptyDataset)
	}
	rec := obs.From(ctx)
	rec.Count(cntSnapshots, 1)
	snap := &KMeansSnapshot{
		Centers:    make([][]float64, len(m.centers)),
		Counts:     append([]int64(nil), m.counts...),
		LastLabels: append([]int(nil), m.lastLabels...),
		LastSSE:    m.lastSSE,
		RowsSeen:   m.rowsSeen,
		Chunks:     m.chunks,
		Reseeds:    m.reseeds,
	}
	for i, ctr := range m.centers {
		snap.Centers[i] = append([]float64(nil), ctr...)
	}
	return snap, nil
}

// RowsSeen reports the total rows accepted so far.
func (m *MiniBatch) RowsSeen() int64 { return m.rowsSeen }

// Chunks reports the number of chunks accepted so far.
func (m *MiniBatch) Chunks() int { return m.chunks }

// Reset drops all learned state, keeping the configuration.
func (m *MiniBatch) Reset() {
	m.d = 0
	m.centers = nil
	m.counts = nil
	m.starved = nil
	m.reseeds = 0
	m.lastLabels = nil
	m.lastSSE = 0
	m.rowsSeen = 0
	m.chunks = 0
}
