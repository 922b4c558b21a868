package subspace

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"multiclust/internal/core"
	"multiclust/internal/dbscan"
	"multiclust/internal/obs"
)

// subcluReference is the SUBCLU search as it stood before neighborhoods
// were derived from parent subspaces: every candidate subspace copies its
// candidates' coordinates and runs a fresh grid-indexed DBSCAN, subspaces
// are keyed by fmt.Sprint of their dims, and parent unions go through a
// map[int]bool. It is kept verbatim as the behavioural oracle for Subclu:
// the differential tests and FuzzSubcluEqualsReference pin byte-identical
// results and identical work counters.
func subcluReference(points [][]float64, cfg SubcluConfig) (*SubcluResult, error) {
	n := len(points)
	if n == 0 {
		return nil, core.ErrEmptyDataset
	}
	if cfg.Eps <= 0 || cfg.MinPts <= 0 {
		return nil, errors.New("subspace: Eps and MinPts must be positive")
	}
	d := len(points[0])
	if cfg.MaxDim <= 0 || cfg.MaxDim > d {
		cfg.MaxDim = d
	}
	res := &SubcluResult{}

	// The apriori walk over subspaces is serial; the per-level examined
	// counts trace how hard the anti-monotonicity prune is working. The
	// root span wraps the whole walk with one child span per lattice
	// level, and each DBSCAN run receives the level's context so its own
	// span nests beneath the level that dispatched it.
	rec := obs.Default()
	ctx, endSpan := obs.SpanCtx(context.Background(), rec, "subspace.subclu.search")
	defer endSpan()

	// level[subspaceKey] = clusters (object sets) found in that subspace.
	level := map[string]*refSubInfo{}

	minPtsAt := func(s int) int {
		if cfg.MinPtsAt != nil {
			if v := cfg.MinPtsAt(s); v > 0 {
				return v
			}
		}
		return cfg.MinPts
	}

	runDBSCAN := func(ctx context.Context, dims []int, candidates []int) [][]int {
		// Cluster only the candidate objects, measuring distance in the
		// subspace. Candidate indices are into `points`.
		sub := make([][]float64, len(candidates))
		for i, o := range candidates {
			row := make([]float64, len(dims))
			for j, dim := range dims {
				row[j] = points[o][dim]
			}
			sub[i] = row
		}
		// A nil distance selects the grid-indexed Euclidean neighborhoods:
		// candidate subspaces are low-dimensional by construction, exactly
		// where the uniform grid turns the O(n) region scans into
		// adjacent-cell probes. Labels are identical to the linear scan.
		c, err := dbscan.RunContext(ctx, sub, nil, dbscan.Config{Eps: cfg.Eps, MinPts: minPtsAt(len(dims))})
		if err != nil {
			return nil
		}
		var out [][]int
		for _, members := range c.Clusters() {
			orig := make([]int, len(members))
			for i, m := range members {
				orig[i] = candidates[m]
			}
			out = append(out, orig)
		}
		return out
	}

	// Level 1: every single dimension over the full database.
	allObjects := make([]int, n)
	for i := range allObjects {
		allObjects[i] = i
	}
	func() {
		lctx, end := obs.SpanCtx(ctx, rec, "subspace.subclu.level")
		defer end()
		for j := 0; j < d; j++ {
			res.SubspacesExamined++
			clusters := runDBSCAN(lctx, []int{j}, allObjects)
			if len(clusters) > 0 {
				level[fmt.Sprint([]int{j})] = &refSubInfo{dims: []int{j}, clusters: clusters}
				res.SubspacesWithClust++
				for _, c := range clusters {
					res.Clusters = append(res.Clusters, core.NewSubspaceCluster(c, []int{j}))
				}
			}
		}
	}()
	obs.Observe(rec, "subspace.subclu.level_examined", 1, float64(res.SubspacesExamined))

	for s := 2; s <= cfg.MaxDim && len(level) > 1; s++ {
		examinedBefore := res.SubspacesExamined
		next := map[string]*refSubInfo{}
		func() {
			lctx, end := obs.SpanCtx(ctx, rec, "subspace.subclu.level")
			defer end()
			infos := make([]*refSubInfo, 0, len(level))
			for _, si := range level {
				infos = append(infos, si)
			}
			sort.Slice(infos, func(i, j int) bool { return fmt.Sprint(infos[i].dims) < fmt.Sprint(infos[j].dims) })
			for i := 0; i < len(infos); i++ {
				for j := i + 1; j < len(infos); j++ {
					dims, ok := joinDims(infos[i].dims, infos[j].dims)
					if !ok {
						continue
					}
					key := fmt.Sprint(dims)
					if _, seen := next[key]; seen {
						continue
					}
					// Apriori prune: all (s-1)-subsets must contain clusters.
					if !refAllSubspacesClustered(dims, level) {
						continue
					}
					// Restrict to the objects of the parent subspace with the
					// fewest clustered objects.
					cand := refSmallestParentObjects(dims, level)
					res.SubspacesExamined++
					clusters := runDBSCAN(lctx, dims, cand)
					if len(clusters) > 0 {
						next[key] = &refSubInfo{dims: dims, clusters: clusters}
						res.SubspacesWithClust++
						for _, c := range clusters {
							res.Clusters = append(res.Clusters, core.NewSubspaceCluster(c, dims))
						}
					}
				}
			}
		}()
		obs.Observe(rec, "subspace.subclu.level_examined", s, float64(res.SubspacesExamined-examinedBefore))
		level = next
	}
	if rec != nil {
		obs.Count(rec, "subspace.subclu.runs", 1)
		obs.Count(rec, "subspace.subclu.subspaces_examined", int64(res.SubspacesExamined))
		obs.Count(rec, "subspace.subclu.subspaces_clustered", int64(res.SubspacesWithClust))
	}
	return res, nil
}

// refSubInfo records the clusters found in one subspace.
type refSubInfo struct {
	dims     []int
	clusters [][]int
}

// refAllSubspacesClustered checks that every (s-1)-subset of dims produced
// clusters at the previous level — the anti-monotonicity prune.
func refAllSubspacesClustered(dims []int, level map[string]*refSubInfo) bool {
	sub := make([]int, 0, len(dims)-1)
	for drop := range dims {
		sub = sub[:0]
		for i, d := range dims {
			if i != drop {
				sub = append(sub, d)
			}
		}
		if _, ok := level[fmt.Sprint(sub)]; !ok {
			return false
		}
	}
	return true
}

// refSmallestParentObjects returns the union of clustered objects of the parent
// subspace (an (s-1)-subset of dims) with the fewest clustered objects.
func refSmallestParentObjects(dims []int, level map[string]*refSubInfo) []int {
	bestSize := -1
	var best []int
	sub := make([]int, 0, len(dims)-1)
	for drop := range dims {
		sub = sub[:0]
		for i, d := range dims {
			if i != drop {
				sub = append(sub, d)
			}
		}
		si, ok := level[fmt.Sprint(sub)]
		if !ok {
			continue
		}
		set := map[int]bool{}
		for _, c := range si.clusters {
			for _, o := range c {
				set[o] = true
			}
		}
		if bestSize < 0 || len(set) < bestSize {
			bestSize = len(set)
			best = best[:0]
			for o := range set {
				best = append(best, o)
			}
		}
	}
	sort.Ints(best)
	return best
}
