// Package hierarchical implements agglomerative clustering with single,
// complete and average linkage. The average-link variant is the base of
// COALA (Bae & Bailey 2006), which interleaves its merges with cannot-link
// constraints to produce an alternative clustering.
package hierarchical

import (
	"fmt"
	"math"
	"sort"

	"multiclust/internal/core"
	"multiclust/internal/dist"
)

// Linkage selects the inter-group distance used for merging.
type Linkage int

const (
	SingleLink Linkage = iota
	CompleteLink
	AverageLink
)

func (l Linkage) String() string {
	switch l {
	case SingleLink:
		return "single"
	case CompleteLink:
		return "complete"
	case AverageLink:
		return "average"
	default:
		return fmt.Sprintf("Linkage(%d)", int(l))
	}
}

// Merge records one agglomeration step.
type Merge struct {
	A, B     int     // merged group ids (initial points are 0..n-1; merge i creates group n+i)
	Distance float64 // linkage distance at which the merge happened
}

// Dendrogram is the full merge history of an agglomerative run.
type Dendrogram struct {
	N      int
	Merges []Merge
}

// Run builds the dendrogram of points under the distance d.
func Run(points [][]float64, d dist.Func, linkage Linkage) (*Dendrogram, error) {
	n := len(points)
	if n == 0 {
		return nil, core.ErrEmptyDataset
	}
	// active groups: map group id -> member point indices.
	members := map[int][]int{}
	for i := 0; i < n; i++ {
		members[i] = []int{i}
	}
	pd := dist.PairwiseMatrix(points, d)
	linkDist := func(a, b []int) float64 {
		switch linkage {
		case SingleLink:
			best := math.Inf(1)
			for _, i := range a {
				for _, j := range b {
					if v := pd.At(i, j); v < best {
						best = v
					}
				}
			}
			return best
		case CompleteLink:
			worst := 0.0
			for _, i := range a {
				for _, j := range b {
					if v := pd.At(i, j); v > worst {
						worst = v
					}
				}
			}
			return worst
		default: // AverageLink
			var s float64
			for _, i := range a {
				for _, j := range b {
					s += pd.At(i, j)
				}
			}
			return s / float64(len(a)*len(b))
		}
	}
	dg := &Dendrogram{N: n}
	nextID := n
	for len(members) > 1 {
		bestA, bestB, bestD := -1, -1, math.Inf(1)
		ids := make([]int, 0, len(members))
		for id := range members {
			ids = append(ids, id)
		}
		// Deterministic order.
		sort.Ints(ids)
		for x := 0; x < len(ids); x++ {
			for y := x + 1; y < len(ids); y++ {
				dd := linkDist(members[ids[x]], members[ids[y]])
				if dd < bestD {
					bestA, bestB, bestD = ids[x], ids[y], dd
				}
			}
		}
		merged := append(append([]int(nil), members[bestA]...), members[bestB]...)
		delete(members, bestA)
		delete(members, bestB)
		members[nextID] = merged
		dg.Merges = append(dg.Merges, Merge{A: bestA, B: bestB, Distance: bestD})
		nextID++
	}
	return dg, nil
}

// Cut returns the flat clustering with exactly k groups, obtained by undoing
// the last k-1 merges.
func (d *Dendrogram) Cut(k int) (*core.Clustering, error) {
	if k <= 0 || k > d.N {
		return nil, fmt.Errorf("hierarchical: cannot cut %d points into %d clusters", d.N, k)
	}
	// Union-find replay of the first n-k merges.
	parent := make(map[int]int, 2*d.N)
	var find func(int) int
	find = func(x int) int {
		p, ok := parent[x]
		if !ok || p == x {
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	nextID := d.N
	for i := 0; i < d.N-k; i++ {
		m := d.Merges[i]
		parent[find(m.A)] = nextID
		parent[find(m.B)] = nextID
		nextID++
	}
	labels := make([]int, d.N)
	idmap := map[int]int{}
	for i := 0; i < d.N; i++ {
		root := find(i)
		l, ok := idmap[root]
		if !ok {
			l = len(idmap)
			idmap[root] = l
		}
		labels[i] = l
	}
	return core.NewClustering(labels), nil
}
