package subspace

import (
	"context"
	"errors"
	"math"

	"multiclust/internal/core"
)

// DuscConfig controls dimensionality-unbiased density-based subspace
// clustering (Assent et al. 2007, tutorial slide 77).
type DuscConfig struct {
	Eps float64 // neighbourhood radius
	// Alpha is the density factor: an object is core when its
	// eps-neighbourhood holds at least Alpha times the count EXPECTED under
	// a uniform distribution at that dimensionality. Default 2. Note that
	// the SUBCLU search still prunes bottom-up, so Alpha must also be
	// satisfiable at 1D, where clusters are diluted by noise projections.
	Alpha  float64
	MaxDim int
	// MinPtsFloor keeps the derived threshold from collapsing below a sane
	// absolute minimum. Default 4.
	MinPtsFloor int
}

// DuscContext runs the SUBCLU search with DUSC's dimensionality-unbiased
// density threshold: the fixed MinPts of plain density-based subspace
// clustering is biased — the volume of the eps-ball shrinks exponentially
// with the subspace dimensionality, so a constant threshold over-selects in
// low dimensions and starves high ones. DUSC replaces it with
//
//	minPts(s) = max(floor, Alpha * n * vol(eps-ball in s dims))
//
// so "dense" always means "Alpha times denser than uniform", independent of
// the subspace dimensionality. Points are expected in [0,1]^d. Cancellation
// is SubcluContext's: the clusters of the completed levels are returned
// wrapped in core.ErrInterrupted.
func DuscContext(ctx context.Context, points [][]float64, cfg DuscConfig) (*SubcluResult, error) {
	n := len(points)
	if n == 0 {
		return nil, core.ErrEmptyDataset
	}
	if cfg.Eps <= 0 {
		return nil, errors.New("subspace: Eps must be positive")
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = 2
	}
	if cfg.MinPtsFloor <= 0 {
		cfg.MinPtsFloor = 4
	}
	minPtsAt := func(s int) int {
		vol := math.Pow(math.Pi, float64(s)/2) / math.Gamma(float64(s)/2+1)
		vol *= math.Pow(cfg.Eps, float64(s))
		if vol > 1 {
			vol = 1
		}
		m := int(math.Ceil(cfg.Alpha * float64(n) * vol))
		if m < cfg.MinPtsFloor {
			m = cfg.MinPtsFloor
		}
		return m
	}
	return SubcluContext(ctx, points, SubcluConfig{
		Eps:      cfg.Eps,
		MinPts:   cfg.MinPtsFloor,
		MaxDim:   cfg.MaxDim,
		MinPtsAt: minPtsAt,
	})
}
