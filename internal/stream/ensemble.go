package stream

import (
	"context"
	"fmt"

	"multiclust/internal/core"
	"multiclust/internal/metaclust"
	"multiclust/internal/obs"
	"multiclust/internal/parallel"
)

// EnsembleConfig controls a sliding-window meta-clustering stream.
type EnsembleConfig struct {
	K             int // clusters per base solution
	PerChunk      int // base solutions generated per chunk (default 8)
	MetaClusters  int // meta clusters per snapshot (default 3)
	FeatureJitter float64
	Window        int // chunks retained; older chunks evict FIFO (default 8)
	Seed          int64
	Workers       int
	Diss          core.DissimilarityFunc // nil means 1 - Rand index, computed for all pairs at once
}

func (cfg EnsembleConfig) withDefaults() EnsembleConfig {
	if cfg.PerChunk <= 0 {
		cfg.PerChunk = 8
	}
	if cfg.MetaClusters <= 0 {
		cfg.MetaClusters = 3
	}
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	return cfg
}

// metaCfg is the metaclust configuration for one chunk's generation. Chunk
// c seeds at Seed+c, so chunk 0 uses the configured seed exactly and a
// single-chunk stream reproduces the batch metaclust run byte for byte.
func (cfg EnsembleConfig) metaCfg(chunk int) metaclust.Config {
	return metaclust.Config{
		K: cfg.K, NumSolutions: cfg.PerChunk, MetaClusters: cfg.MetaClusters,
		FeatureJitter: cfg.FeatureJitter, Seed: cfg.Seed + int64(chunk),
		Workers: cfg.Workers, Diss: cfg.Diss,
	}
}

// EnsembleSnapshot is the grouped view of the current window.
type EnsembleSnapshot struct {
	Representatives []*core.Clustering // one per meta cluster, over the window's rows
	MetaLabels      []int              // meta-cluster id per base solution (window order)
	MeanPairwise    float64
	WindowChunks    int
	WindowRows      int
	Evicted         int // chunks evicted FIFO over the stream's lifetime
	RowsSeen        int64
	Chunks          int
}

type ensembleEntry struct {
	rows [][]float64
	sols []metaclust.BaseSolution
}

// Ensemble is the mergeable sliding-window ensemble: every pushed chunk
// contributes PerChunk perturbed base solutions (metaclust.Generate on the
// chunk's rows), a ring buffer keeps the last Window chunks and evicts
// whole chunks FIFO, and Snapshot extends each retained base solution to
// the whole window — own-chunk rows keep their fitted labels, foreign rows
// are assigned to the solution's centers in its weighted feature space —
// before handing all of them to metaclust.Group. A single-chunk stream is
// byte-identical to batch metaclust.RunContext on the same rows. Not safe
// for concurrent use.
type Ensemble struct {
	cfg EnsembleConfig

	d        int
	window   []ensembleEntry
	evicted  int
	rowsSeen int64
	chunks   int
}

// NewEnsemble validates cfg and returns an empty ensemble stream.
func NewEnsemble(cfg EnsembleConfig) (*Ensemble, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("stream: invalid K=%d: %w", cfg.K, core.ErrInvalidInput)
	}
	cfg = cfg.withDefaults()
	if cfg.MetaClusters > cfg.PerChunk {
		return nil, fmt.Errorf("stream: MetaClusters=%d exceeds PerChunk=%d: %w", cfg.MetaClusters, cfg.PerChunk, core.ErrInvalidInput)
	}
	return &Ensemble{cfg: cfg}, nil
}

// Push appends one chunk of rows; see PushContext.
func (e *Ensemble) Push(rows [][]float64) error {
	return e.PushContext(context.Background(), rows)
}

// PushContext generates the chunk's base solutions and admits them to the
// window, evicting the oldest chunk when the window is full. The context
// is polled at the chunk boundary and threaded into every base k-means
// run; on interruption the best-so-far solutions still enter the window
// and the error wraps core.ErrInterrupted.
func (e *Ensemble) PushContext(ctx context.Context, rows [][]float64) error {
	if err := boundary(ctx); err != nil {
		return err
	}
	d, err := checkChunk(rows, e.d)
	if err != nil {
		return err
	}
	if len(rows) < e.cfg.K {
		return fmt.Errorf("stream: chunk has %d rows, need at least K=%d: %w", len(rows), e.cfg.K, core.ErrInvalidInput)
	}
	rec := obs.From(ctx)
	ctx, end := obs.SpanCtx(ctx, rec, "stream.ensemble.push")
	defer end()

	// Own the rows: the window outlives the caller's buffer.
	owned := make([][]float64, len(rows))
	for i, r := range rows {
		owned[i] = append([]float64(nil), r...)
	}
	sols, gerr := metaclust.Generate(ctx, owned, e.cfg.metaCfg(e.chunks))
	if sols == nil {
		return gerr
	}
	e.d = d
	e.window = append(e.window, ensembleEntry{rows: owned, sols: sols})
	if len(e.window) > e.cfg.Window {
		e.window = e.window[1:]
		e.evicted++
		rec.Count(cntEvicted, 1)
	}
	e.rowsSeen += int64(len(rows))
	e.chunks++
	countChunk(rec, len(rows))
	return gerr // interruption passes through with best-so-far solutions admitted
}

// Snapshot groups the current window; see SnapshotContext.
func (e *Ensemble) Snapshot() (*EnsembleSnapshot, error) {
	return e.SnapshotContext(context.Background())
}

// SnapshotContext extends every retained base solution to the window's
// pooled rows and groups them with metaclust.Group. The extension fans out
// over internal/parallel with per-solution slots, so snapshots are
// byte-identical at any worker count.
func (e *Ensemble) SnapshotContext(ctx context.Context) (*EnsembleSnapshot, error) {
	if e.chunks == 0 {
		return nil, fmt.Errorf("stream: snapshot of an empty stream: %w", core.ErrEmptyDataset)
	}
	if err := boundary(ctx); err != nil {
		return nil, err
	}
	rec := obs.From(ctx)
	ctx, end := obs.SpanCtx(ctx, rec, "stream.ensemble.snapshot")
	defer end()

	// Pool the window's rows in chunk order and record each chunk's offset.
	var windowRows int
	offsets := make([]int, len(e.window))
	for i, entry := range e.window {
		offsets[i] = windowRows
		windowRows += len(entry.rows)
	}
	type solRef struct {
		entry int
		sol   *metaclust.BaseSolution
	}
	var refs []solRef
	for i := range e.window {
		for s := range e.window[i].sols {
			refs = append(refs, solRef{entry: i, sol: &e.window[i].sols[s]})
		}
	}
	extended := parallel.Map(len(refs), e.cfg.Workers, func(r int) *core.Clustering {
		ref := refs[r]
		labels := make([]int, windowRows)
		for i, entry := range e.window {
			off := offsets[i]
			if i == ref.entry {
				copy(labels[off:], ref.sol.Clustering.Labels)
				continue
			}
			for j, row := range entry.rows {
				labels[off+j] = nearestWeighted(row, ref.sol.Weights, ref.sol.Centers)
			}
		}
		return core.NewClustering(labels)
	})

	g, err := metaclust.Group(ctx, extended, e.cfg.MetaClusters, e.cfg.Diss, e.cfg.Workers)
	if err != nil {
		return nil, err
	}
	rec.Count(cntSnapshots, 1)
	snap := &EnsembleSnapshot{
		MetaLabels:   g.MetaLabels,
		MeanPairwise: g.MeanPairwise,
		WindowChunks: len(e.window),
		WindowRows:   windowRows,
		Evicted:      e.evicted,
		RowsSeen:     e.rowsSeen,
		Chunks:       e.chunks,
	}
	for _, idx := range g.Representatives {
		snap.Representatives = append(snap.Representatives, extended[idx])
	}
	return snap, nil
}

// nearestWeighted assigns row to the closest center in the solution's
// weighted feature space — strict < with index-order tie-break, the same
// argmin rule as the batch assignment.
func nearestWeighted(row, weights []float64, centers [][]float64) int {
	best, bestSq := 0, -1.0
	for c, ctr := range centers {
		var sq float64
		for j, v := range row {
			diff := v*weights[j] - ctr[j]
			sq += diff * diff
		}
		if bestSq < 0 || sq < bestSq {
			best, bestSq = c, sq
		}
	}
	return best
}

// RowsSeen reports the total rows accepted so far (including evicted).
func (e *Ensemble) RowsSeen() int64 { return e.rowsSeen }

// Chunks reports the number of chunks accepted so far (including evicted).
func (e *Ensemble) Chunks() int { return e.chunks }

// Reset drops all learned state, keeping the configuration.
func (e *Ensemble) Reset() {
	e.d = 0
	e.window = nil
	e.evicted = 0
	e.rowsSeen = 0
	e.chunks = 0
}
