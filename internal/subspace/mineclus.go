package subspace

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"multiclust/internal/core"
)

// MineClusConfig controls a MineClus run (Yiu & Mamoulis 2003, slide 72).
type MineClusConfig struct {
	W           float64 // half-width of the cluster box per relevant dimension
	Alpha       float64 // minimum cluster size as a fraction of n, default 0.1
	Beta        float64 // size/dimensionality trade-off in (0,0.5], default 0.25
	MaxClusters int     // default 10
	Medoids     int     // medoid pivots tried per cluster, default 2/alpha
	Seed        int64
}

// MineClusResult carries the projective clusters and their qualities.
type MineClusResult struct {
	Clusters core.SubspaceClustering
	Quality  []float64
}

// MineClusContext is the frequent-pattern reformulation of DOC: around a
// pivot medoid p every point maps to the itemset of dimensions on which it
// lies within W of p, and the best projective cluster corresponds to the
// itemset maximizing mu(support, |itemset|) = support * (1/Beta)^|itemset|.
// The itemset search greedily grows the dimension set in support order,
// admitting a dimension only when it improves mu while the support stays
// above Alpha*n — the deterministic replacement for DOC's random
// discriminating sets. Found clusters are removed and the hunt repeats.
func MineClusContext(ctx context.Context, points [][]float64, cfg MineClusConfig) (*MineClusResult, error) {
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
	if cfg.Medoids <= 0 {
		cfg.Medoids = int(2/cfg.Alpha) + 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	minSize := int(cfg.Alpha * float64(n))
	if minSize < 2 {
		minSize = 2
	}
	res := &MineClusResult{}

	for len(res.Clusters) < cfg.MaxClusters && len(active) >= minSize {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("subspace: mineclus interrupted: %v: %w", err, core.ErrInterrupted)
		}
		var bestObjs, bestDims []int
		bestQ := -1.0
		for m := 0; m < cfg.Medoids; m++ {
			p := points[active[rng.Intn(len(active))]]
			objs, dims, q := bestItemset(points, active, p, cfg.W, cfg.Beta, minSize)
			if q > bestQ {
				bestObjs, bestDims, bestQ = objs, dims, q
			}
		}
		if bestObjs == nil {
			break
		}
		res.Clusters = append(res.Clusters, core.NewSubspaceCluster(bestObjs, bestDims))
		res.Quality = append(res.Quality, bestQ)
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

// bestItemset finds, for pivot p, the dimension set maximizing
// mu = support * (1/beta)^|dims| subject to support >= minSize, by a
// greedy-then-improve search over dimensions ordered by support.
func bestItemset(points [][]float64, active []int, p []float64, w, beta float64, minSize int) (objs, dims []int, quality float64) {
	d := len(p)
	// Transaction sets: which active objects fall within w of p per dim.
	within := make([][]bool, d)
	supports := make([]int, d)
	for j := 0; j < d; j++ {
		within[j] = make([]bool, len(active))
		for ai, o := range active {
			if math.Abs(points[o][j]-p[j]) <= w {
				within[j][ai] = true
				supports[j]++
			}
		}
	}
	order := make([]int, d)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return supports[order[a]] > supports[order[b]] })

	gain := 1 / beta
	// Greedy: add dims in support order while the quality improves and the
	// support constraint holds.
	current := make([]bool, len(active))
	for i := range current {
		current[i] = true
	}
	count := len(active)
	var chosen []int
	bestQ := -1.0
	var bestDims []int
	var bestMask []bool
	for _, j := range order {
		// Support after adding dim j.
		newCount := 0
		for ai := range current {
			if current[ai] && within[j][ai] {
				newCount++
			}
		}
		if newCount < minSize {
			continue
		}
		// Quality gain test: adding j multiplies by gain and scales support.
		newQ := float64(newCount) * math.Pow(gain, float64(len(chosen)+1))
		curQ := float64(count) * math.Pow(gain, float64(len(chosen)))
		if len(chosen) > 0 && newQ <= curQ {
			continue
		}
		for ai := range current {
			current[ai] = current[ai] && within[j][ai]
		}
		count = newCount
		chosen = append(chosen, j)
		if q := float64(count) * math.Pow(gain, float64(len(chosen))); q > bestQ {
			bestQ = q
			bestDims = append([]int(nil), chosen...)
			bestMask = append([]bool(nil), current...)
		}
	}
	if bestDims == nil {
		return nil, nil, -1
	}
	for ai, in := range bestMask {
		if in {
			objs = append(objs, active[ai])
		}
	}
	sort.Ints(bestDims)
	return objs, bestDims, bestQ
}
