package stream

import (
	"context"
	"fmt"

	"multiclust/internal/core"
	"multiclust/internal/em"
	"multiclust/internal/multiview"
	"multiclust/internal/obs"
)

// CoEMConfig controls an online co-EM stream. Rows arrive full-width and
// are split by column into the two views at SplitAt, so the learner keeps
// the uniform Push(rows) surface.
type CoEMConfig struct {
	K       int
	SplitAt int // first column of view B; default d/2, must be 1..d-1
	Seed    int64
	MaxIter int     // first-chunk batch co-EM round cap (default 30)
	Tol     float64 // first-chunk early-stop tolerance
	MinVar  float64 // variance floor (default 1e-6)
	// Forgetting is the exponential decay λ in (0, 1] applied to the
	// sufficient statistics before each online chunk is folded in
	// (default 0.9). λ=1 keeps every chunk at full weight. The decay is
	// indexed by chunk arrival order, never by wall-clock time.
	Forgetting float64
	Workers    int
}

func (cfg CoEMConfig) withDefaults() CoEMConfig {
	if cfg.MinVar <= 0 {
		cfg.MinVar = 1e-6
	}
	if cfg.Forgetting <= 0 {
		cfg.Forgetting = 0.9
	}
	return cfg
}

// CoEMSnapshot is the state of an online co-EM stream: the two per-view
// models, the consensus clustering of the most recent chunk, and the
// diagnostics the batch CoEM reports per round.
type CoEMSnapshot struct {
	ModelA, ModelB *em.Model
	Clustering     *core.Clustering // consensus over the last chunk's rows
	Agreement      float64
	LogLikA        float64
	LogLikB        float64
	LastChunkRows  int
	RowsSeen       int64
	Chunks         int
}

// CoEM is streaming co-EM (Bickel & Scheffer 2004 made incremental): the
// first chunk is solved with the batch multiview.CoEM — a single-chunk
// stream reproduces it byte for byte — and every later chunk performs one
// interleaved online round on em.SuffStats with exponential forgetting:
// expectation of the chunk under view A feeds view B's decayed M-step and
// vice versa, the cross-feeding that defines co-EM. E-steps fan out over
// internal/parallel row-sharded, byte-identical at any worker count. Not
// safe for concurrent use.
type CoEM struct {
	cfg CoEMConfig

	d, split       int
	modelA, modelB *em.Model
	statsA, statsB *em.SuffStats
	lastA, lastB   [][]float64 // retained views of the most recent chunk
	rowsSeen       int64
	chunks         int
}

// NewCoEM validates cfg and returns an empty co-EM stream.
func NewCoEM(cfg CoEMConfig) (*CoEM, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("stream: invalid K=%d: %w", cfg.K, core.ErrInvalidInput)
	}
	if cfg.SplitAt < 0 {
		return nil, fmt.Errorf("stream: invalid SplitAt=%d: %w", cfg.SplitAt, core.ErrInvalidInput)
	}
	if cfg.Forgetting > 1 {
		return nil, fmt.Errorf("stream: Forgetting=%v outside (0, 1]: %w", cfg.Forgetting, core.ErrInvalidInput)
	}
	return &CoEM{cfg: cfg.withDefaults()}, nil
}

// Push appends one chunk of rows; see PushContext.
func (s *CoEM) Push(rows [][]float64) error {
	return s.PushContext(context.Background(), rows)
}

// PushContext appends one chunk. The context is polled at the chunk
// boundary; a cancelled context rejects the chunk with the learner's state
// untouched and an error wrapping core.ErrInterrupted.
func (s *CoEM) PushContext(ctx context.Context, rows [][]float64) error {
	if err := boundary(ctx); err != nil {
		return err
	}
	d, err := checkChunk(rows, s.d)
	if err != nil {
		return err
	}
	split := s.split
	if s.chunks == 0 {
		if d < 2 {
			return fmt.Errorf("stream: co-EM needs at least 2 columns to split into views, have %d: %w", d, core.ErrShape)
		}
		split = s.cfg.SplitAt
		if split == 0 {
			split = d / 2
		}
		if split < 1 || split >= d {
			return fmt.Errorf("stream: SplitAt=%d outside 1..%d: %w", split, d-1, core.ErrInvalidInput)
		}
		if len(rows) < s.cfg.K {
			return fmt.Errorf("stream: first chunk has %d rows, need at least K=%d: %w", len(rows), s.cfg.K, core.ErrInvalidInput)
		}
	}
	rec := obs.From(ctx)
	_, end := obs.SpanCtx(ctx, rec, "stream.coem.push")
	defer end()

	viewA := make([][]float64, len(rows))
	viewB := make([][]float64, len(rows))
	for i, r := range rows {
		viewA[i] = append([]float64(nil), r[:split]...)
		viewB[i] = append([]float64(nil), r[split:]...)
	}

	if s.chunks == 0 {
		res, cerr := multiview.CoEM(viewA, viewB, multiview.CoEMConfig{
			K: s.cfg.K, MaxIter: s.cfg.MaxIter, Seed: s.cfg.Seed,
			MinVar: s.cfg.MinVar, Tol: s.cfg.Tol,
		})
		if cerr != nil {
			return cerr
		}
		s.d, s.split = d, split
		s.modelA, s.modelB = res.ModelA, res.ModelB
		// Seed the forgetting accumulators with the bootstrap's cross
		// statistics: each view's model came from the other view's
		// posteriors, and the online rounds keep that pairing.
		s.statsA = em.NewSuffStats(s.cfg.K, split)
		s.statsA.Add(viewA, res.PosteriorB)
		s.statsB = em.NewSuffStats(s.cfg.K, d-split)
		s.statsB.Add(viewB, res.PosteriorA)
	} else {
		n := len(rows)
		postA := newPost(n, s.cfg.K)
		postB := newPost(n, s.cfg.K)
		// One interleaved online round, mirroring the batch order
		// MStep(B)·EStep(B)·MStep(A)·EStep(A) with decayed statistics.
		em.EStep(viewA, s.modelA, postA, s.cfg.MinVar, s.cfg.Workers)
		s.statsB.Scale(s.cfg.Forgetting)
		s.statsB.Add(viewB, postA)
		s.statsB.ModelInto(s.modelB, s.cfg.MinVar)
		em.EStep(viewB, s.modelB, postB, s.cfg.MinVar, s.cfg.Workers)
		s.statsA.Scale(s.cfg.Forgetting)
		s.statsA.Add(viewA, postB)
		s.statsA.ModelInto(s.modelA, s.cfg.MinVar)
	}
	s.lastA, s.lastB = viewA, viewB
	s.rowsSeen += int64(len(rows))
	s.chunks++
	countChunk(rec, len(rows))
	return nil
}

// Snapshot returns the current state; see SnapshotContext.
func (s *CoEM) Snapshot() (*CoEMSnapshot, error) {
	return s.SnapshotContext(context.Background())
}

// SnapshotContext evaluates both models on the most recent chunk and
// returns their consensus clustering plus cloned models. For a
// single-chunk stream the result is byte-identical to the batch
// multiview.CoEM consensus on the same rows.
func (s *CoEM) SnapshotContext(ctx context.Context) (*CoEMSnapshot, error) {
	if s.chunks == 0 {
		return nil, fmt.Errorf("stream: snapshot of an empty stream: %w", core.ErrEmptyDataset)
	}
	if err := boundary(ctx); err != nil {
		return nil, err
	}
	rec := obs.From(ctx)
	_, end := obs.SpanCtx(ctx, rec, "stream.coem.snapshot")
	defer end()

	n := len(s.lastA)
	postA := newPost(n, s.cfg.K)
	postB := newPost(n, s.cfg.K)
	llA := em.EStep(s.lastA, s.modelA, postA, s.cfg.MinVar, s.cfg.Workers)
	llB := em.EStep(s.lastB, s.modelB, postB, s.cfg.MinVar, s.cfg.Workers)
	avg := make([][]float64, n)
	for i := range avg {
		row := make([]float64, s.cfg.K)
		for c := 0; c < s.cfg.K; c++ {
			row[c] = 0.5 * (postA[i][c] + postB[i][c])
		}
		avg[i] = row
	}
	rec.Count(cntSnapshots, 1)
	return &CoEMSnapshot{
		ModelA:        s.modelA.Clone(),
		ModelB:        s.modelB.Clone(),
		Clustering:    em.Harden(avg),
		Agreement:     multiview.Agreement(postA, postB),
		LogLikA:       llA,
		LogLikB:       llB,
		LastChunkRows: n,
		RowsSeen:      s.rowsSeen,
		Chunks:        s.chunks,
	}, nil
}

func newPost(n, k int) [][]float64 {
	post := make([][]float64, n)
	for i := range post {
		post[i] = make([]float64, k)
	}
	return post
}

// RowsSeen reports the total rows accepted so far.
func (s *CoEM) RowsSeen() int64 { return s.rowsSeen }

// Chunks reports the number of chunks accepted so far.
func (s *CoEM) Chunks() int { return s.chunks }

// Reset drops all learned state, keeping the configuration.
func (s *CoEM) Reset() {
	s.d, s.split = 0, 0
	s.modelA, s.modelB = nil, nil
	s.statsA, s.statsB = nil, nil
	s.lastA, s.lastB = nil, nil
	s.rowsSeen = 0
	s.chunks = 0
}
