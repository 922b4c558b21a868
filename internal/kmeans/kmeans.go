// Package kmeans implements k-means with k-means++ seeding and random
// restarts; the Lloyd iteration prunes its assignment step with Hamerly's
// bounds (hamerly.go). K-means is the tutorial's running example
// of a traditional single-solution algorithm (slide 3) and the base learner
// inside several multiple-clustering methods (decorrelated k-means, meta
// clustering, orthogonal projections).
package kmeans

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"multiclust/internal/core"
	"multiclust/internal/dist"
	"multiclust/internal/obs"
	"multiclust/internal/parallel"
)

// Config controls a k-means run.
type Config struct {
	K        int
	MaxIter  int   // default 100
	Restarts int   // default 1; best-SSE run wins
	Seed     int64 // RNG seed for seeding; restart r derives seed Seed+r
	Workers  int   // parallelism; <=0 resolves via internal/parallel
}

// Result is a fitted k-means model.
type Result struct {
	Clustering *core.Clustering
	Centers    [][]float64
	SSE        float64 // sum of squared distances to assigned centers
	Iterations int
}

// Run clusters points with Lloyd's algorithm, its assignment step pruned by
// Hamerly's bounds: labels, centers, SSE, iteration count and the recorded
// trajectory equal those of plain full scans, only
// kmeans.distance_computations drops.
func Run(points [][]float64, cfg Config) (*Result, error) {
	return RunContext(context.Background(), points, cfg)
}

// RunContext is Run with cancellation: each restart polls ctx at its
// iteration boundary (after a full assignment pass, so labels are always
// valid) and stops early when the context is done. The best-so-far result
// across restarts is still returned, wrapped in core.ErrInterrupted. With a
// background context the output is byte-identical to Run.
func RunContext(ctx context.Context, points [][]float64, cfg Config) (*Result, error) {
	return run(ctx, points, cfg, runOnceHamerly)
}

// run is RunContext with the per-restart iteration passed in, so the tests
// drive Lloyd's full-scan oracle through the same validation, seeding and
// restart selection.
func run(ctx context.Context, points [][]float64, cfg Config,
	once func(ctx context.Context, points [][]float64, k, maxIter int, centers [][]float64, workers int, rec obs.Recorder) (*Result, error),
) (*Result, error) {
	n := len(points)
	if n == 0 {
		return nil, core.ErrEmptyDataset
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("kmeans: K must be positive, got %d: %w", cfg.K, core.ErrInvalidInput)
	}
	if cfg.K > n {
		return nil, fmt.Errorf("kmeans: K=%d exceeds n=%d: %w", cfg.K, n, core.ErrInvalidInput)
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 100
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 1
	}
	// Restarts are independent: each derives its own seed (cfg.Seed + r) up
	// front and runs concurrently; the best-SSE selection scans in restart
	// order with a strict <, so the winner is independent of completion
	// order (ties go to the lowest restart index).
	w := parallel.Workers(cfg.Workers)
	innerW := w / cfg.Restarts
	if innerW < 1 {
		innerW = 1
	}
	rec := obs.From(ctx)
	ctx, endSpan := obs.SpanCtx(ctx, rec, "kmeans.run")
	defer endSpan()
	obs.Count(rec, "kmeans.restarts", int64(cfg.Restarts))
	type restartOut struct {
		res *Result
		err error
	}
	outs := parallel.Map(cfg.Restarts, w, func(r int) restartOut {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(r)))
		centers := plusPlusSeeds(ctx, points, cfg.K, rng, rec)
		res, err := once(ctx, points, cfg.K, cfg.MaxIter, centers, innerW, rec)
		return restartOut{res, err}
	})
	best := outs[0]
	for _, o := range outs[1:] {
		if o.res.SSE < best.res.SSE {
			best = o
		}
	}
	for _, o := range outs {
		if o.err != nil {
			return best.res, fmt.Errorf("kmeans: interrupted: %v: %w", o.err, core.ErrInterrupted)
		}
	}
	return best.res, nil
}

// recomputeCenters returns the mean of each cluster's members. Empty
// clusters are re-seeded to the point farthest from its assigned center —
// the standard dead-centroid fix — excluding points already claimed by
// another reseed in the same pass, so two clusters that empty in the same
// iteration land on distinct points instead of collapsing onto one.
//
// The sums live in one flat k×d array and each returned center is a
// capacity-capped window onto it; every (center, column) sum still adds
// its points in index order, so the means are bit-identical to per-center
// accumulators.
func recomputeCenters(points [][]float64, labels []int, k, d int, centers [][]float64, rec obs.Recorder) [][]float64 {
	counts := make([]int, k)
	sums := make([]float64, k*d)
	for i, p := range points {
		c := labels[i]
		counts[c]++
		s := sums[c*d : c*d+d]
		for j, v := range p {
			s[j] += v
		}
	}
	next := make([][]float64, k)
	var used []bool
	for c := range next {
		next[c] = sums[c*d : c*d+d : c*d+d]
		if counts[c] == 0 {
			obs.Count(rec, "kmeans.reseeds", 1)
			if used == nil {
				used = make([]bool, len(points))
			}
			far, farD := -1, -1.0
			for i, p := range points {
				if used[i] {
					continue
				}
				if dd := dist.SqEuclidean(p, centers[labels[i]]); dd > farD {
					far, farD = i, dd
				}
			}
			if far < 0 {
				far = 0 // more empty clusters than points; degenerate input
			}
			used[far] = true
			copy(next[c], points[far])
			continue
		}
		for j := range next[c] {
			next[c][j] /= float64(counts[c])
		}
	}
	return next
}

// plusPlusSeeds picks k initial centers with the k-means++ D^2 weighting,
// under a kmeans.seed span. Each point keeps its squared distance to the
// nearest center chosen so far and folds in only the newest one, so a
// restart computes (k-1)·n distances (counted as
// kmeans.seed_distance_computations) instead of n·k(k-1)/2; a minimum is
// exact and the total adds the same values in the same order, so the
// centers and the RNG draws equal a full rescan's.
func plusPlusSeeds(ctx context.Context, points [][]float64, k int, rng *rand.Rand, rec obs.Recorder) [][]float64 {
	_, endSpan := obs.SpanCtx(ctx, rec, "kmeans.seed")
	defer endSpan()
	n := len(points)
	centers := make([][]float64, 0, k)
	first := points[rng.Intn(n)]
	centers = append(centers, append([]float64(nil), first...))
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	var nDist int64
	for len(centers) < k {
		newest := centers[len(centers)-1]
		var total float64
		for i, p := range points {
			if dd := dist.SqEuclidean(p, newest); dd < d2[i] {
				d2[i] = dd
			}
			nDist++
			total += d2[i]
		}
		var idx int
		if total == 0 {
			idx = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			var cum float64
			for i, w := range d2 {
				cum += w
				if cum >= target {
					idx = i
					break
				}
			}
		}
		centers = append(centers, append([]float64(nil), points[idx]...))
	}
	obs.Count(rec, "kmeans.seed_distance_computations", nDist)
	return centers
}
