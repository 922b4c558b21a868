package subspace

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"multiclust/internal/core"
)

// DOCConfig controls a DOC run (Procopiuc et al. 2002, slide 66).
type DOCConfig struct {
	W           float64 // half-width of the cluster box per relevant dimension
	Alpha       float64 // minimum cluster size as a fraction of n, default 0.1
	Beta        float64 // size/dimensionality trade-off in (0, 0.5], default 0.25
	MaxClusters int     // stop after this many clusters, default 10
	Seed        int64
	OuterTrials int // pivot draws per cluster; default 2/alpha
	InnerTrials int // discriminating-set draws per pivot; default computed from the paper's bound
}

// DOCResult carries the Monte-Carlo projective clusters.
type DOCResult struct {
	Clusters core.SubspaceClustering
	Quality  []float64 // mu(|C|, |D|) per cluster
}

// DOCContext finds axis-parallel projective clusters by Monte-Carlo
// sampling: draw a pivot p and a small discriminating set X; the relevant
// dimensions D are those on which every x in X stays within W of p; the
// cluster is every point inside the 2W-box around p on D. Candidate
// quality is
//
//	mu(a, b) = a * (1/Beta)^b
//
// which trades cluster size against dimensionality. The best candidate is
// accepted if it holds at least Alpha*n points; its points are removed and
// the hunt repeats (the greedy "find one, remove, repeat" of the paper).
// ctx is polled at each cluster-hunt boundary (every discovered cluster is
// complete), returning the clusters found so far wrapped in
// core.ErrInterrupted.
func DOCContext(ctx context.Context, points [][]float64, cfg DOCConfig) (*DOCResult, error) {
	n := len(points)
	if n == 0 {
		return nil, core.ErrEmptyDataset
	}
	if cfg.W <= 0 {
		return nil, errors.New("subspace: W must be positive")
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = 0.1
	}
	if cfg.Beta <= 0 || cfg.Beta > 0.5 {
		cfg.Beta = 0.25
	}
	if cfg.MaxClusters <= 0 {
		cfg.MaxClusters = 10
	}
	d := len(points[0])
	if cfg.OuterTrials <= 0 {
		cfg.OuterTrials = int(2/cfg.Alpha) + 1
	}
	if cfg.InnerTrials <= 0 {
		// m = (2/alpha)^r * ln 4 with r = log(2d)/log(1/(2beta)), capped for
		// tractability.
		r := math.Log(2*float64(d)) / math.Log(1/(2*cfg.Beta))
		if r < 1 {
			r = 1
		}
		m := math.Pow(2/cfg.Alpha, r) * math.Log(4)
		if m > 256 {
			m = 256
		}
		cfg.InnerTrials = int(m) + 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	res := &DOCResult{}
	minSize := int(cfg.Alpha * float64(n))
	if minSize < 2 {
		minSize = 2
	}
	rSize := int(math.Log(2*float64(d))/math.Log(1/(2*cfg.Beta))) + 1

	for len(res.Clusters) < cfg.MaxClusters && len(active) >= minSize {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("subspace: doc interrupted: %v: %w", err, core.ErrInterrupted)
		}
		var bestObjs []int
		var bestDims []int
		bestQ := -1.0
		for outer := 0; outer < cfg.OuterTrials; outer++ {
			p := points[active[rng.Intn(len(active))]]
			for inner := 0; inner < cfg.InnerTrials; inner++ {
				// Discriminating set X.
				dims := make([]int, 0, d)
				ok := true
				xset := make([][]float64, rSize)
				for i := range xset {
					xset[i] = points[active[rng.Intn(len(active))]]
				}
				for j := 0; j < d; j++ {
					within := true
					for _, x := range xset {
						if math.Abs(x[j]-p[j]) > cfg.W {
							within = false
							break
						}
					}
					if within {
						dims = append(dims, j)
					}
				}
				if len(dims) == 0 {
					ok = false
				}
				if !ok {
					continue
				}
				// Cluster: active points inside the 2W box on dims.
				var objs []int
				for _, o := range active {
					inside := true
					for _, j := range dims {
						if math.Abs(points[o][j]-p[j]) > cfg.W {
							inside = false
							break
						}
					}
					if inside {
						objs = append(objs, o)
					}
				}
				if len(objs) < minSize {
					continue
				}
				q := float64(len(objs)) * math.Pow(1/cfg.Beta, float64(len(dims)))
				if q > bestQ {
					bestQ = q
					bestObjs = objs
					bestDims = dims
				}
			}
		}
		if bestObjs == nil {
			break
		}
		res.Clusters = append(res.Clusters, core.NewSubspaceCluster(bestObjs, bestDims))
		res.Quality = append(res.Quality, bestQ)
		// Remove the clustered points and continue.
		inCluster := map[int]bool{}
		for _, o := range bestObjs {
			inCluster[o] = true
		}
		var rest []int
		for _, o := range active {
			if !inCluster[o] {
				rest = append(rest, o)
			}
		}
		active = rest
	}
	return res, nil
}
