// Package metrics implements the clustering comparison and quality measures
// the tutorial leans on: pair-counting indices (Rand, Adjusted Rand,
// Jaccard, pairwise F1), information-theoretic measures (NMI, variation of
// information, conditional entropy), purity, SSE/silhouette quality scores,
// and a best-match F1 for subspace clusterings. Comparison measures are the
// Diss functions of the abstract problem definition (slide 27); quality
// measures are the Q functions.
package metrics

import (
	"fmt"
	"math"

	"multiclust/internal/core"
	"multiclust/internal/dist"
	"multiclust/internal/stats"
)

// ValidatePair checks that two labelings cover the same objects; the typed
// error (wrapping core.ErrShape) is the precondition every comparison
// measure in this package assumes. The float64-returning metrics keep the
// core.DissimilarityFunc-compatible signature and instead return NaN — a
// detectable sentinel, never a panic — when the precondition is violated.
func ValidatePair(x, y []int) error {
	if len(x) != len(y) {
		return fmt.Errorf("metrics: labelings of length %d and %d: %w", len(x), len(y), core.ErrShape)
	}
	return nil
}

// PairCounts holds the four pair-counting cells for two labelings:
// a = pairs together in both, b = together in A only, c = together in B
// only, d = separated in both. Pairs involving noise objects are skipped.
type PairCounts struct{ A, B, C, D float64 }

// CountPairs tallies object pairs for two labelings of equal length.
// Mismatched lengths yield the zero PairCounts; the exported indices built
// on it return NaN in that case. The cells come from contingency sums, not
// from visiting pairs, so the cost is O(n + kx + ky).
func CountPairs(x, y []int) PairCounts {
	if len(x) != len(y) {
		return PairCounts{}
	}
	a, rows, cols, n := pairSums(x, y)
	b, c := rows-a, cols-a
	return PairCounts{
		A: float64(a),
		B: float64(b),
		C: float64(c),
		D: float64(n*(n-1)/2 - a - b - c),
	}
}

// pairSums returns the contingency sums every pair-counting index is built
// from, over the n objects that are non-noise in both labelings (of equal
// length): together = Σᵢⱼ C(nᵢⱼ, 2), rowPairs = Σᵢ C(rowᵢ, 2) and
// colPairs = Σⱼ C(colⱼ, 2). The sums are exact int64 arithmetic, so their
// float64 conversions are exact below 2⁵³.
//
// Time and memory are O(n + kx + ky); no kx×ky table is built. The objects
// are counting-sorted by row, and each row's cells are tallied in one
// ky-length counter that is cleared again before the next row.
func pairSums(x, y []int) (together, rowPairs, colPairs, n int64) {
	buf := make([]int32, 3*len(x))
	rx, ry, byRow := buf[:len(x)], buf[len(x):2*len(x)], buf[2*len(x):]
	kx, ky := stats.RelabelPair(rx, ry, x, y)
	rowEnd := make([]int32, kx)
	count := make([]int64, ky)
	for i, r := range rx {
		if r >= 0 {
			rowEnd[r]++
			count[ry[i]]++
			n++
		}
	}
	var off int32
	for r, s := range rowEnd {
		rowPairs += int64(s) * int64(s-1) / 2
		rowEnd[r] = off // the start of row r until the fill below
		off += s
	}
	for _, s := range count {
		colPairs += s * (s - 1) / 2
	}
	for i, r := range rx {
		if r >= 0 {
			byRow[rowEnd[r]] = ry[i]
			rowEnd[r]++
		}
	}
	// count now tallies the current row's cells and is cleared after it.
	clear(count)
	var lo int32
	for _, hi := range rowEnd {
		row := byRow[lo:hi]
		for _, c := range row {
			together += count[c] // the m-th object of a cell pairs with the m-1 before it
			count[c]++
		}
		for _, c := range row {
			count[c] = 0
		}
		lo = hi
	}
	return together, rowPairs, colPairs, n
}

// RandIndex returns (a+d)/(a+b+c+d) in [0,1]; 1 means identical partitions.
// This is the dissimilarity base used by meta clustering (slide 29).
// Mismatched labeling lengths return NaN.
func RandIndex(x, y []int) float64 {
	if ValidatePair(x, y) != nil {
		return math.NaN()
	}
	pc := CountPairs(x, y)
	tot := pc.A + pc.B + pc.C + pc.D
	if tot == 0 {
		return 1
	}
	return (pc.A + pc.D) / tot
}

// AdjustedRand returns the Hubert–Arabie adjusted Rand index, which is 0 in
// expectation for independent partitions and 1 for identical ones.
// Mismatched labeling lengths return NaN. It reads the same contingency sums
// as CountPairs, so it never builds a kx×ky table either.
func AdjustedRand(x, y []int) float64 {
	if ValidatePair(x, y) != nil {
		return math.NaN()
	}
	together, rowPairs, colPairs, n := pairSums(x, y)
	sumComb, sumRow, sumCol := float64(together), float64(rowPairs), float64(colPairs)
	total := float64(n * (n - 1) / 2)
	if total == 0 {
		return 1
	}
	expected := sumRow * sumCol / total
	maxIdx := 0.5 * (sumRow + sumCol)
	den := maxIdx - expected
	if den == 0 {
		return 1 // both partitions trivial
	}
	return (sumComb - expected) / den
}

// JaccardIndex returns a/(a+b+c), ignoring jointly-separated pairs.
// Mismatched labeling lengths return NaN.
func JaccardIndex(x, y []int) float64 {
	if ValidatePair(x, y) != nil {
		return math.NaN()
	}
	pc := CountPairs(x, y)
	den := pc.A + pc.B + pc.C
	if den == 0 {
		return 1
	}
	return pc.A / den
}

// PairF1 treats "pair clustered together" as a retrieval task with x as
// truth: precision a/(a+c), recall a/(a+b), and returns their harmonic mean.
func PairF1(truth, found []int) float64 {
	if ValidatePair(truth, found) != nil {
		return math.NaN()
	}
	pc := CountPairs(truth, found)
	if pc.A == 0 {
		return 0
	}
	prec := pc.A / (pc.A + pc.C)
	rec := pc.A / (pc.A + pc.B)
	return 2 * prec * rec / (prec + rec)
}

// NMI returns the normalized mutual information of two labelings, in [0,1].
// Mismatched labeling lengths return NaN.
func NMI(x, y []int) float64 {
	ct, err := stats.NewContingencyTable(x, y)
	if err != nil {
		return math.NaN()
	}
	return stats.NMI(ct)
}

// VariationOfInformation returns VI(x,y) = H(x|y) + H(y|x) in nats; 0 means
// identical partitions and larger means more different. VI is a true metric
// on partitions, making it a principled Diss function. Mismatched labeling
// lengths return NaN.
func VariationOfInformation(x, y []int) float64 {
	ct, err := stats.NewContingencyTable(x, y)
	if err != nil {
		return math.NaN()
	}
	hxy := ct.JointEntropy()
	v := 2*hxy - ct.EntropyRow() - ct.EntropyCol()
	if v < 0 {
		v = 0
	}
	return v
}

// ConditionalEntropy returns H(x|y) in nats. Mismatched labeling lengths
// return NaN.
func ConditionalEntropy(x, y []int) float64 {
	ct, err := stats.NewContingencyTable(x, y)
	if err != nil {
		return math.NaN()
	}
	return ct.ConditionalEntropyRowGivenCol()
}

// MutualInformation returns I(x;y) in nats. Mismatched labeling lengths
// return NaN.
func MutualInformation(x, y []int) float64 {
	ct, err := stats.NewContingencyTable(x, y)
	if err != nil {
		return math.NaN()
	}
	return ct.MutualInformation()
}

// Purity returns the weighted fraction of objects in each found cluster that
// belong to that cluster's majority truth class. Noise objects in found are
// excluded. Mismatched labeling lengths return NaN.
func Purity(truth, found []int) float64 {
	if ValidatePair(truth, found) != nil {
		return math.NaN()
	}
	byCluster := map[int]map[int]int{}
	total := 0
	for i, f := range found {
		if f < 0 || truth[i] < 0 {
			continue
		}
		m, ok := byCluster[f]
		if !ok {
			m = map[int]int{}
			byCluster[f] = m
		}
		m[truth[i]]++
		total++
	}
	if total == 0 {
		return 0
	}
	var correct int
	for _, m := range byCluster {
		best := 0
		for _, c := range m {
			if c > best {
				best = c
			}
		}
		correct += best
	}
	return float64(correct) / float64(total)
}

// SSE returns the sum of squared Euclidean distances of each clustered point
// to its cluster mean — the canonical Q for centroid methods. Noise points
// are ignored.
func SSE(points [][]float64, c *core.Clustering) float64 {
	if c.N() != len(points) {
		return math.NaN()
	}
	clusters := c.Clusters()
	var sse float64
	for _, members := range clusters {
		if len(members) == 0 {
			continue
		}
		d := len(points[members[0]])
		mean := make([]float64, d)
		for _, o := range members {
			for j, v := range points[o] {
				mean[j] += v
			}
		}
		for j := range mean {
			mean[j] /= float64(len(members))
		}
		for _, o := range members {
			sse += dist.SqEuclidean(points[o], mean)
		}
	}
	return sse
}

// Silhouette returns the mean silhouette coefficient over clustered points,
// in [-1, 1]; higher means tighter, better-separated clusters. Points in
// singleton clusters contribute 0; noise points are skipped.
func Silhouette(points [][]float64, c *core.Clustering) float64 {
	if c.N() != len(points) {
		return math.NaN()
	}
	clusters := c.Clusters()
	if len(clusters) < 2 {
		return 0
	}
	// Iterate clusters and members in index order: summing in map-iteration
	// order made the result depend on Go's randomized map ordering in the
	// last floating-point bits, which flipped argmax decisions downstream
	// (e.g. CondEns member selection) between identical runs.
	var sum float64
	var count int
	for ci, own := range clusters {
		for _, o := range own {
			if len(own) <= 1 {
				count++
				continue
			}
			var a float64
			for _, p := range own {
				if p != o {
					a += dist.Euclidean(points[o], points[p])
				}
			}
			a /= float64(len(own) - 1)
			b := math.Inf(1)
			for cj, other := range clusters {
				if cj == ci {
					continue
				}
				var s float64
				for _, p := range other {
					s += dist.Euclidean(points[o], points[p])
				}
				if avg := s / float64(len(other)); avg < b {
					b = avg
				}
			}
			den := math.Max(a, b)
			if den > 0 {
				sum += (b - a) / den
			}
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// AverageWithinDistance returns the mean pairwise distance inside clusters —
// COALA's dissimilarity-vs-quality experiments report this as cluster
// quality (lower is tighter).
func AverageWithinDistance(points [][]float64, c *core.Clustering, d dist.Func) float64 {
	if c.N() != len(points) {
		return math.NaN()
	}
	var sum float64
	var count int
	for _, members := range c.Clusters() {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				sum += d(points[members[i]], points[members[j]])
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// SubspaceF1 scores a found subspace clustering against ground truth with
// best-match F1: each truth cluster is matched to the found cluster
// maximizing object-set F1, and the matched F1 values are averaged. The
// standard recall-oriented score of the subspace clustering evaluation study
// (Müller et al. 2009b).
func SubspaceF1(truth, found core.SubspaceClustering) float64 {
	if len(truth) == 0 {
		return 0
	}
	var total float64
	for _, tc := range truth {
		best := 0.0
		for _, fc := range found {
			inter := float64(tc.SharedObjects(fc))
			if inter == 0 {
				continue
			}
			prec := inter / float64(fc.Size())
			rec := inter / float64(tc.Size())
			f1 := 2 * prec * rec / (prec + rec)
			if f1 > best {
				best = f1
			}
		}
		total += best
	}
	return total / float64(len(truth))
}

// SubspaceDimPrecision measures how well the found clusters' dimension sets
// match their best-matching truth clusters (Jaccard of dim sets averaged
// over found clusters matched by objects).
func SubspaceDimPrecision(truth, found core.SubspaceClustering) float64 {
	if len(found) == 0 {
		return 0
	}
	var total float64
	for _, fc := range found {
		bestObj := 0
		var bestTruth *core.SubspaceCluster
		for ti := range truth {
			if inter := fc.SharedObjects(truth[ti]); inter > bestObj {
				bestObj = inter
				bestTruth = &truth[ti]
			}
		}
		if bestTruth == nil {
			continue
		}
		interDims := float64(fc.SharedDims(*bestTruth))
		unionDims := float64(len(fc.Dims)+len(bestTruth.Dims)) - interDims
		if unionDims > 0 {
			total += interDims / unionDims
		}
	}
	return total / float64(len(found))
}

// Redundancy measures the fraction of clusters in m that are near-duplicates
// of an earlier cluster: object-set Jaccard above the threshold. The
// redundancy pathology of slide 77 is exactly a high value here.
func Redundancy(m core.SubspaceClustering, jaccardThreshold float64) float64 {
	if len(m) <= 1 {
		return 0
	}
	redundant := 0
	for i := 1; i < len(m); i++ {
		for j := 0; j < i; j++ {
			inter := float64(m[i].SharedObjects(m[j]))
			union := float64(m[i].Size()+m[j].Size()) - inter
			if union > 0 && inter/union >= jaccardThreshold {
				redundant++
				break
			}
		}
	}
	return float64(redundant) / float64(len(m))
}
