package multiview

import (
	"errors"
	"fmt"
	"sort"

	"multiclust/internal/core"
	"multiclust/internal/dbscan"
	"multiclust/internal/dist"
)

// CombineMode selects how local neighbourhoods of the views are merged.
type CombineMode int

const (
	// Union (slide 106): an object is core when the UNION of its local
	// neighbourhoods is large; two objects join when similar in at least one
	// view. Suited to sparse views that each see only part of the structure.
	Union CombineMode = iota
	// Intersection (slide 107): an object is core when the INTERSECTION of
	// its local neighbourhoods is large; objects join only when similar in
	// all views. Suited to unreliable views — purer clusters.
	Intersection
)

func (m CombineMode) String() string {
	if m == Union {
		return "union"
	}
	return "intersection"
}

// MVDBSCANConfig controls multi-represented DBSCAN.
type MVDBSCANConfig struct {
	// Eps per view (must match the number of views).
	Eps    []float64
	MinPts int
	Mode   CombineMode
}

// MVDBSCAN clusters objects described by several representations (views)
// with the multi-represented DBSCAN of Kailing et al. (2004a): the
// epsilon-neighbourhood is evaluated per view with its own radius, and the
// core-object test and reachability use the union or intersection of the
// local neighbourhoods.
func MVDBSCAN(views [][][]float64, cfg MVDBSCANConfig) (*core.Clustering, error) {
	if len(views) == 0 {
		return nil, errors.New("multiview: no views")
	}
	n := len(views[0])
	if n == 0 {
		return nil, core.ErrEmptyDataset
	}
	for v := 1; v < len(views); v++ {
		if len(views[v]) != n {
			return nil, ErrViewMismatch
		}
	}
	if len(cfg.Eps) != len(views) {
		return nil, fmt.Errorf("multiview: %d eps values for %d views", len(cfg.Eps), len(views))
	}
	for _, e := range cfg.Eps {
		if e <= 0 {
			return nil, errors.New("multiview: eps must be positive")
		}
	}
	if cfg.MinPts <= 0 {
		return nil, errors.New("multiview: minPts must be positive")
	}

	locals := make([]dbscan.NeighborFunc, len(views))
	for v := range views {
		locals[v] = dbscan.EpsNeighbors(views[v], dist.Euclidean, cfg.Eps[v])
	}
	var combined dbscan.NeighborFunc
	switch cfg.Mode {
	case Union:
		combined = func(o int) []int {
			seen := map[int]bool{}
			var out []int
			for _, nf := range locals {
				for _, p := range nf(o) {
					if !seen[p] {
						seen[p] = true
						out = append(out, p)
					}
				}
			}
			return out
		}
	case Intersection:
		combined = func(o int) []int {
			counts := map[int]int{}
			for _, nf := range locals {
				for _, p := range nf(o) {
					counts[p]++
				}
			}
			var out []int
			for p, c := range counts {
				if c == len(locals) {
					out = append(out, p)
				}
			}
			// DBSCAN's labels do not depend on the order within a list,
			// but map iteration order is random; the sort keeps each list
			// the same on every call, as the Union lists are.
			sort.Ints(out)
			return out
		}
	default:
		return nil, fmt.Errorf("multiview: unknown combine mode %d", cfg.Mode)
	}
	return dbscan.RunGeneric(n, combined, cfg.MinPts)
}
