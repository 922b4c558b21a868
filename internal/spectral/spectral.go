// Package spectral implements normalized spectral clustering
// (Ng, Jordan & Weiss 2001): an RBF affinity matrix, the normalized
// affinity D^{-1/2} W D^{-1/2}, its top-k eigenvectors as an embedding, and
// k-means on the row-normalized embedding. It is the base learner of the
// mSC multiple-non-redundant-views method (Niu & Dy 2010) and the two-view
// spectral approach (de Sa 2005).
package spectral

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"multiclust/internal/core"
	"multiclust/internal/dist"
	"multiclust/internal/kmeans"
	"multiclust/internal/linalg"
	"multiclust/internal/obs"
	"multiclust/internal/parallel"
)

// Config controls a spectral clustering run.
type Config struct {
	K     int
	Sigma float64 // RBF bandwidth; <=0 selects the median pairwise distance
	Seed  int64
}

// Result carries the clustering and the spectral embedding.
type Result struct {
	Clustering *core.Clustering
	Embedding  *linalg.Matrix // n × k row-normalized eigenvector matrix
	Sigma      float64        // bandwidth actually used
}

// RBFAffinity builds the n×n Gaussian affinity matrix with the given sigma
// (auto-selected as the median pairwise distance when sigma <= 0). Diagonal
// entries are zero, following Ng et al.
func RBFAffinity(points [][]float64, sigma float64) (*linalg.Matrix, float64) {
	n := len(points)
	pd := dist.PairwiseMatrix(points, dist.Euclidean)
	if sigma <= 0 {
		var ds []float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				ds = append(ds, pd.At(i, j))
			}
		}
		sigma = median(ds)
		if sigma <= 0 {
			sigma = 1
		}
	}
	w := linalg.NewMatrix(n, n)
	inv := 1 / (2 * sigma * sigma)
	// Each row's kernel evaluations are independent; rows write disjoint
	// slices of the matrix, so the result matches the serial loop exactly.
	parallel.For(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				d := pd.At(i, j)
				w.Set(i, j, math.Exp(-d*d*inv))
			}
		}
	})
	return w, sigma
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// NormalizedAffinity returns D^{-1/2} W D^{-1/2}; its top-k eigenvectors
// span the same space as the bottom-k of the normalized Laplacian.
func NormalizedAffinity(w *linalg.Matrix) *linalg.Matrix {
	n := w.Rows
	dinv := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += w.At(i, j)
		}
		if s > 0 {
			dinv[i] = 1 / math.Sqrt(s)
		}
	}
	out := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out.Set(i, j, dinv[i]*w.At(i, j)*dinv[j])
		}
	}
	return out
}

// EmbedContext computes the row-normalized top-k eigenvector embedding of
// the normalized affinity. The eigensolve polls ctx at each Jacobi sweep;
// on interruption the partially-converged embedding is still returned
// (row-normalized, finite) alongside an error wrapping core.ErrInterrupted.
func EmbedContext(ctx context.Context, w *linalg.Matrix, k int) (*linalg.Matrix, error) {
	if k <= 0 || k > w.Rows {
		return nil, fmt.Errorf("spectral: invalid embedding dimension %d: %w", k, core.ErrInvalidInput)
	}
	na := NormalizedAffinity(w)
	// Symmetrize against numerical asymmetry before eigensolving.
	for i := 0; i < na.Rows; i++ {
		for j := i + 1; j < na.Cols; j++ {
			avg := 0.5 * (na.At(i, j) + na.At(j, i))
			na.Set(i, j, avg)
			na.Set(j, i, avg)
		}
	}
	e, err := linalg.SymEigenContext(ctx, na)
	if e == nil {
		return nil, err
	}
	n := w.Rows
	emb := linalg.NewMatrix(n, k)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			emb.Set(i, j, e.Vectors.At(i, j))
		}
	}
	for i := 0; i < n; i++ {
		linalg.Normalize(emb.Row(i))
	}
	return emb, err
}

// Run performs the full spectral clustering pipeline on points.
func Run(points [][]float64, cfg Config) (*Result, error) {
	return RunContext(context.Background(), points, cfg)
}

// RunContext is Run with cancellation, threaded through the eigensolve and
// the k-means stage. On interruption it returns a structurally valid
// best-so-far result wrapped in core.ErrInterrupted; with a background
// context the output is byte-identical to Run.
func RunContext(ctx context.Context, points [][]float64, cfg Config) (*Result, error) {
	if len(points) == 0 {
		return nil, core.ErrEmptyDataset
	}
	if cfg.K <= 0 || cfg.K > len(points) {
		return nil, errors.New("spectral: invalid K")
	}
	w, sigma := RBFAffinity(points, cfg.Sigma)
	return RunAffinityContext(ctx, w, cfg.K, cfg.Seed, sigma)
}

// RunAffinity performs spectral clustering on a precomputed affinity matrix.
// mSC calls this with penalized affinities.
func RunAffinity(w *linalg.Matrix, k int, seed int64, sigma float64) (*Result, error) {
	return RunAffinityContext(context.Background(), w, k, seed, sigma)
}

// RunAffinityContext is RunAffinity with cancellation; see RunContext.
func RunAffinityContext(ctx context.Context, w *linalg.Matrix, k int, seed int64, sigma float64) (*Result, error) {
	rec := obs.From(ctx)
	ctx, endSpan := obs.SpanCtx(ctx, rec, "spectral.run")
	defer endSpan()
	obs.Count(rec, "spectral.embeddings", 1)
	emb, eerr := EmbedContext(ctx, w, k)
	if emb == nil {
		return nil, eerr
	}
	rows := make([][]float64, emb.Rows)
	for i := range rows {
		rows[i] = emb.Row(i)
	}
	// An already-cancelled context still completes one full k-means
	// assignment pass, so the labels below are always valid.
	km, kerr := kmeans.RunContext(ctx, rows, kmeans.Config{K: k, Seed: seed, Restarts: 5})
	if km == nil {
		return nil, kerr
	}
	res := &Result{Clustering: km.Clustering, Embedding: emb, Sigma: sigma}
	if eerr != nil || kerr != nil {
		return res, fmt.Errorf("spectral: interrupted: %w", core.ErrInterrupted)
	}
	return res, nil
}
