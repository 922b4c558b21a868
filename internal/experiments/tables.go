package experiments

import (
	"sort"
	"strings"
	"time"

	"multiclust/internal/alternative"
	"multiclust/internal/core"
	"multiclust/internal/dataset"
	"multiclust/internal/metrics"
	"multiclust/internal/orthogonal"
	"multiclust/internal/simultaneous"
	"multiclust/internal/subspace"
	"multiclust/internal/taxonomy"
)

func init() {
	register("T1", T1Taxonomy)
	register("T2", T2ParadigmSummary)
}

// T1Taxonomy regenerates the tutorial's comparison table (slides 21 and
// 116) from the algorithm metadata registry.
func T1Taxonomy() (*Table, error) {
	t := &Table{
		ID: "T1", Slides: "21,116",
		Title:   "taxonomy of implemented algorithms",
		Columns: []string{"algorithm", "space", "processing", "given know.", "#clusterings", "subspace detec.", "flexibility"},
	}
	for _, e := range taxonomy.Registry() {
		t.Rows = append(t.Rows, append([]string{e.Algorithm}, e.Cells()...))
	}
	t.Notes = append(t.Notes, "generated from internal/taxonomy, mirrors the tutorial's table")
	return t, nil
}

// T2ParadigmSummary runs one representative per paradigm on a single common
// benchmark (two hidden views in a 4-dimensional table) and reports quality
// of the recovered alternative plus wall time — the cross-paradigm
// comparison the tutorial's summary section performs qualitatively.
func T2ParadigmSummary() (*Table, error) {
	ds, labelings, viewDims := dataset.MultiViewGaussians(13, 160, []dataset.ViewSpec{
		{Dims: 2, K: 2, Sep: 10, Sigma: 0.5},
		{Dims: 2, K: 2, Sep: 5, Sigma: 0.5},
	})
	// The "given" knowledge is the dominant view's labeling.
	given := core.NewClustering(labelings[0])
	hidden := labelings[1]

	t := &Table{
		ID: "T2", Slides: "45,61,91,111",
		Title:   "one benchmark, one representative per paradigm: recover the hidden view",
		Columns: []string{"paradigm", "method", "ARI hidden view", "ARI given view", "runtime"},
	}
	type entry struct {
		paradigm, method string
		run              func() ([]int, error)
	}
	runs := []entry{
		{"original space (iterative)", "COALA(w=0.1)", func() ([]int, error) {
			r, err := alternative.Coala(ds.Points, given, alternative.CoalaConfig{K: 2, W: 0.1})
			if err != nil {
				return nil, err
			}
			return r.Clustering.Labels, nil
		}},
		{"original space (simultaneous)", "DecKMeans", func() ([]int, error) {
			r, err := simultaneous.DecKMeans(ds.Points, simultaneous.DecKMeansConfig{Ks: []int{2, 2}, Seed: 1})
			if err != nil {
				return nil, err
			}
			// Report the solution more different from the given view.
			l0, l1 := r.Clusterings[0].Labels, r.Clusterings[1].Labels
			if metrics.NMI(given.Labels, l0) < metrics.NMI(given.Labels, l1) {
				return l0, nil
			}
			return l1, nil
		}},
		{"orthogonal transformation", "Qi&Davidson", func() ([]int, error) {
			r, err := orthogonal.AlternativeTransform(ds.Points, given, orthogonal.KMeansBase(2, 1))
			if err != nil {
				return nil, err
			}
			return r.Clustering.Labels, nil
		}},
		{"subspace projections", "CLIQUE+ASCLU", func() ([]int, error) {
			norm := ds.Normalize()
			cl, err := subspace.Clique(norm.Points, subspace.CliqueConfig{Xi: 6, Tau: 0.15})
			if err != nil {
				return nil, err
			}
			known := core.SubspaceClustering{knownAsSubspace(given, viewDims[0])}
			sel, err := subspace.Asclu(cl.Clusters, subspace.AscluConfig{
				OscluConfig: subspace.OscluConfig{Alpha: 0.5, Beta: 0.5},
				Known:       known,
			})
			if err != nil {
				return nil, err
			}
			// Selected clusters from different subspaces are different
			// solutions; flatten only the concept group (same subspace,
			// disjoint from the Known dims) with the best coverage.
			best := pickAlternativeGroup(sel, viewDims[0])
			return subspaceToLabels(best, ds.N()), nil
		}},
	}
	for _, e := range runs {
		start := time.Now()
		labels, err := e.run()
		if err != nil {
			// A paradigm failing on the common benchmark is itself a result.
			t.Rows = append(t.Rows, []string{e.paradigm, e.method, "error", strings.ReplaceAll(err.Error(), "\n", " "), "-"})
			continue
		}
		elapsed := time.Since(start)
		t.Rows = append(t.Rows, []string{
			e.paradigm, e.method,
			f2(metrics.AdjustedRand(hidden, labels)),
			f2(metrics.AdjustedRand(given.Labels, labels)),
			elapsed.Round(time.Millisecond).String(),
		})
	}
	t.Notes = append(t.Notes,
		"every paradigm should score high on the hidden view and low on the given one",
		"subspace row uses object-overlap labels from the selected subspace clusters; unclustered objects count as noise")
	return t, nil
}

// knownAsSubspace wraps a flat labeling as one subspace cluster per label
// over the given dims; the largest cluster is used as Known.
func knownAsSubspace(c *core.Clustering, dims []int) core.SubspaceCluster {
	best := []int(nil)
	for _, members := range c.Clusters() {
		if len(members) > len(best) {
			best = members
		}
	}
	return core.NewSubspaceCluster(best, dims)
}

// pickAlternativeGroup groups the selection by identical subspace, drops
// groups whose dimensions intersect the known view, and returns the group
// covering the most objects.
func pickAlternativeGroup(sel core.SubspaceClustering, knownDims []int) core.SubspaceClustering {
	knownSet := map[int]bool{}
	for _, d := range knownDims {
		knownSet[d] = true
	}
	var bestGroup core.SubspaceClustering
	bestCover := -1
	groups := sel.GroupBySubspace()
	subspaces := make([]string, 0, len(groups))
	for s := range groups {
		subspaces = append(subspaces, s)
	}
	// Sorted so coverage ties pick the same group every run.
	sort.Strings(subspaces)
	for _, s := range subspaces {
		group := groups[s]
		overlap := false
		for _, d := range group[0].Dims {
			if knownSet[d] {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		cover := core.SubspaceClustering(group).TotalObjects()
		if cover > bestCover {
			bestCover = cover
			bestGroup = group
		}
	}
	return bestGroup
}

// subspaceToLabels converts a subspace clustering to flat labels by
// first-come assignment; uncovered objects are noise.
func subspaceToLabels(m core.SubspaceClustering, n int) []int {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = core.Noise
	}
	for ci, c := range m {
		for _, o := range c.Objects {
			if labels[o] == core.Noise {
				labels[o] = ci
			}
		}
	}
	return labels
}
