// Package core defines the shared vocabulary of the module: clusterings as
// label vectors, subspace clusters as (object set, dimension set) pairs, and
// the abstract quality/dissimilarity function types from the tutorial's
// problem definition (slide 27):
//
//	detect clusterings Clust_1..Clust_m such that Q(Clust_i) is high for all
//	i and Diss(Clust_i, Clust_j) is high for all i != j.
package core

import (
	"errors"
	"fmt"
	"sort"
)

// Noise is the label assigned to objects that belong to no cluster.
const Noise = -1

// Clustering is a flat partition (or partial partition) of n objects given
// as a label per object; label Noise marks unclustered objects. Labels need
// not be contiguous.
type Clustering struct {
	Labels []int
}

// NewClustering wraps a label vector (no copy).
func NewClustering(labels []int) *Clustering { return &Clustering{Labels: labels} }

// N returns the number of objects.
func (c *Clustering) N() int { return len(c.Labels) }

// K returns the number of distinct non-noise clusters.
func (c *Clustering) K() int {
	seen := map[int]bool{}
	for _, l := range c.Labels {
		if l >= 0 {
			seen[l] = true
		}
	}
	return len(seen)
}

// Clusters returns the member indices of each non-noise cluster, keyed by
// ascending original label.
func (c *Clustering) Clusters() [][]int {
	byLabel := map[int][]int{}
	for i, l := range c.Labels {
		if l >= 0 {
			byLabel[l] = append(byLabel[l], i)
		}
	}
	labels := make([]int, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Ints(labels)
	out := make([][]int, len(labels))
	for i, l := range labels {
		out[i] = byLabel[l]
	}
	return out
}

// NoiseCount returns the number of objects labelled Noise.
func (c *Clustering) NoiseCount() int {
	n := 0
	for _, l := range c.Labels {
		if l < 0 {
			n++
		}
	}
	return n
}

// Relabel returns a copy whose cluster labels are renumbered 0..K-1 in order
// of first appearance. Noise stays Noise.
func (c *Clustering) Relabel() *Clustering {
	next := 0
	mapping := map[int]int{}
	out := make([]int, len(c.Labels))
	for i, l := range c.Labels {
		if l < 0 {
			out[i] = Noise
			continue
		}
		m, ok := mapping[l]
		if !ok {
			m = next
			mapping[l] = m
			next++
		}
		out[i] = m
	}
	return NewClustering(out)
}

// Validate checks structural sanity against an expected object count.
func (c *Clustering) Validate(n int) error {
	if len(c.Labels) != n {
		return fmt.Errorf("core: clustering covers %d objects, dataset has %d", len(c.Labels), n)
	}
	return nil
}

// Clone returns a deep copy.
func (c *Clustering) Clone() *Clustering {
	return NewClustering(append([]int(nil), c.Labels...))
}

// FromClusters builds a Clustering of n objects from explicit member lists.
// Objects in no list become Noise; an object in two lists is an error.
func FromClusters(n int, clusters [][]int) (*Clustering, error) {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	for ci, members := range clusters {
		for _, o := range members {
			if o < 0 || o >= n {
				return nil, fmt.Errorf("core: object index %d out of range [0,%d)", o, n)
			}
			if labels[o] != Noise {
				return nil, fmt.Errorf("core: object %d assigned to clusters %d and %d", o, labels[o], ci)
			}
			labels[o] = ci
		}
	}
	return NewClustering(labels), nil
}

// SubspaceCluster is a set of objects grouped within a subset of the
// dimensions — the (O, S) pair of the subspace clustering paradigm
// (tutorial slide 65).
type SubspaceCluster struct {
	Objects []int // ascending object indices
	Dims    []int // ascending dimension indices
}

// NewSubspaceCluster copies and sorts the given index sets.
func NewSubspaceCluster(objects, dims []int) SubspaceCluster {
	o := append([]int(nil), objects...)
	d := append([]int(nil), dims...)
	sort.Ints(o)
	sort.Ints(d)
	return SubspaceCluster{Objects: o, Dims: d}
}

// Dimensionality returns |S|.
func (sc SubspaceCluster) Dimensionality() int { return len(sc.Dims) }

// Size returns |O|.
func (sc SubspaceCluster) Size() int { return len(sc.Objects) }

// SharedDims returns the number of dimensions shared with other.
func (sc SubspaceCluster) SharedDims(other SubspaceCluster) int {
	return intersectionSize(sc.Dims, other.Dims)
}

// SharedObjects returns the number of objects shared with other.
func (sc SubspaceCluster) SharedObjects(other SubspaceCluster) int {
	return intersectionSize(sc.Objects, other.Objects)
}

// String renders the cluster compactly.
func (sc SubspaceCluster) String() string {
	return fmt.Sprintf("(|O|=%d, S=%v)", len(sc.Objects), sc.Dims)
}

// intersectionSize counts common elements of two ascending-sorted slices.
func intersectionSize(a, b []int) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// SubspaceClustering is a result set M of subspace clusters.
type SubspaceClustering []SubspaceCluster

// TotalObjects returns the number of distinct objects covered by any cluster.
func (m SubspaceClustering) TotalObjects() int {
	seen := map[int]bool{}
	for _, c := range m {
		for _, o := range c.Objects {
			seen[o] = true
		}
	}
	return len(seen)
}

// GroupBySubspace partitions the result by identical dimension sets; the
// tutorial's "awareness of different clusterings" challenge (slide 92) is
// exactly recovering these groups.
func (m SubspaceClustering) GroupBySubspace() map[string][]SubspaceCluster {
	out := map[string][]SubspaceCluster{}
	for _, c := range m {
		key := fmt.Sprint(c.Dims)
		out[key] = append(out[key], c)
	}
	return out
}

// QualityFunc scores a clustering of the given data; higher is better.
type QualityFunc func(points [][]float64, c *Clustering) float64

// DissimilarityFunc scores how different two clusterings are; higher means
// more different.
type DissimilarityFunc func(a, b *Clustering) float64

// MultiResult is a set of clustering solutions over one database, the output
// shape shared by every paradigm in the module.
type MultiResult struct {
	Clusterings []*Clustering
	// Views optionally records, per clustering, the dimensions or the
	// transformation it was found in (nil when the original space was used).
	Views [][]int
}

// NewMultiResult bundles solutions (views default to nil).
func NewMultiResult(clusterings ...*Clustering) *MultiResult {
	return &MultiResult{Clusterings: clusterings}
}

// PairwiseDissimilarity evaluates Diss on every solution pair and returns
// the mean — the second half of the tutorial's twin objective (slide 27).
func (m *MultiResult) PairwiseDissimilarity(diss DissimilarityFunc) float64 {
	if len(m.Clusterings) < 2 {
		return 0
	}
	var sum float64
	var cnt int
	for i := 0; i < len(m.Clusterings); i++ {
		for j := i + 1; j < len(m.Clusterings); j++ {
			sum += diss(m.Clusterings[i], m.Clusterings[j])
			cnt++
		}
	}
	return sum / float64(cnt)
}

// TotalQuality sums Q over the solutions — the first half of the twin
// objective.
func (m *MultiResult) TotalQuality(points [][]float64, q QualityFunc) float64 {
	var sum float64
	for _, c := range m.Clusterings {
		sum += q(points, c)
	}
	return sum
}

// ErrEmptyDataset is returned by algorithms invoked on no data.
var ErrEmptyDataset = errors.New("core: empty dataset")

// Typed error taxonomy of the fault-tolerant execution layer (see
// internal/robust and DESIGN.md "Failure semantics & cancellation"). The
// sentinels live here, at the bottom of the import graph, so every layer —
// stats, metrics, the algorithm packages, the facade — can wrap them without
// import cycles. Callers match with errors.Is.
var (
	// ErrInvalidInput marks data an algorithm cannot meaningfully process:
	// NaN or Inf coordinates, zero-dimensional points, nil required inputs.
	ErrInvalidInput = errors.New("core: invalid input")

	// ErrShape marks structurally inconsistent inputs: ragged rows,
	// label vectors whose length disagrees with the dataset, distribution
	// vectors of unequal length.
	ErrShape = errors.New("core: shape mismatch")

	// ErrInterrupted marks a run cut short by context cancellation or
	// deadline expiry. Algorithms wrap it around their best-so-far result:
	// the returned value (when non-nil) is structurally valid but reflects
	// fewer iterations than requested.
	ErrInterrupted = errors.New("core: interrupted")

	// ErrDegenerate marks a run that completed but produced an unusable
	// result (a non-finite EM log-likelihood or spectral embedding).
	// robust.Retry re-runs such outcomes on a deterministic seed schedule
	// where a seed can change them: the facade's EM is its only caller.
	ErrDegenerate = errors.New("core: degenerate result")

	// ErrPanic marks a panic captured at the facade boundary and converted
	// into an error; no exported multiclust call panics.
	ErrPanic = errors.New("core: recovered panic")
)
