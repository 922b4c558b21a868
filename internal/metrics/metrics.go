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
	"multiclust/internal/parallel"
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
	return pairSums(x, y).counts()
}

// contingencySums are the sums every pair-counting index is built from,
// over the n objects that are non-noise in both labelings: together =
// Σᵢⱼ C(nᵢⱼ, 2), rowPairs = Σᵢ C(rowᵢ, 2) and colPairs = Σⱼ C(colⱼ, 2).
// They are exact int64 arithmetic, so their float64 conversions are exact
// below 2⁵³.
type contingencySums struct{ together, rowPairs, colPairs, n int64 }

func (s contingencySums) counts() PairCounts {
	b, c := s.rowPairs-s.together, s.colPairs-s.together
	return PairCounts{
		A: float64(s.together),
		B: float64(b),
		C: float64(c),
		D: float64(s.n*(s.n-1)/2 - s.together - b - c),
	}
}

// rand is the Rand index of the sums, the one formula RandIndex and
// RandDissimilarities share, so their values agree bit for bit.
func (s contingencySums) rand() float64 {
	pc := s.counts()
	tot := pc.A + pc.B + pc.C + pc.D
	if tot == 0 {
		return 1
	}
	return (pc.A + pc.D) / tot
}

// pairSums relabels two labelings of equal length to dense ids and counts
// their contingency sums.
func pairSums(x, y []int) contingencySums {
	ids := make([]int32, 2*len(x))
	rx, ry := ids[:len(x)], ids[len(x):]
	kx, ky := stats.Relabel(rx, x), stats.Relabel(ry, y)
	return countSums(rx, ry, kx, ky, make([]int32, len(x)+kx+ky))
}

// countSums is the counting step every pair-counting index shares. rx and
// ry are dense ids of the same n objects (rx[i] in [0, kx), ry[i] in
// [0, ky), -1 for noise); objects that are noise in either are skipped.
// scratch must hold n + kx + ky entries, in any state.
//
// When kx·ky ≤ n the cells are tallied in a kx×ky table, followed by ky
// column sums. Otherwise the objects are counting-sorted by row and each
// row's cells are tallied in one ky-length counter, cleared again before
// the next row. Either way time and memory are O(n + kx + ky): no table
// outgrows n.
func countSums(rx, ry []int32, kx, ky int, scratch []int32) (s contingencySums) {
	if ky == 0 || kx <= len(rx)/ky {
		cells, cols := scratch[:kx*ky], scratch[kx*ky:kx*ky+ky]
		clear(cells)
		clear(cols)
		for i, r := range rx {
			if c := ry[i]; r|c >= 0 {
				cells[int(r)*ky+int(c)]++
			}
		}
		for r := 0; r < kx; r++ {
			var row int64
			for c, v := range cells[r*ky : (r+1)*ky] {
				row += int64(v)
				s.together += int64(v) * int64(v-1) / 2
				cols[c] += v
			}
			s.rowPairs += row * (row - 1) / 2
			s.n += row
		}
		for _, v := range cols {
			s.colPairs += int64(v) * int64(v-1) / 2
		}
		return s
	}
	byRow, rowEnd, count := scratch[:len(rx)], scratch[len(rx):len(rx)+kx], scratch[len(rx)+kx:len(rx)+kx+ky]
	clear(rowEnd)
	clear(count)
	for i, r := range rx {
		if c := ry[i]; r|c >= 0 {
			rowEnd[r]++
			count[c]++
			s.n++
		}
	}
	var off int32
	for r, v := range rowEnd {
		s.rowPairs += int64(v) * int64(v-1) / 2
		rowEnd[r] = off // the start of row r until the fill below
		off += v
	}
	for c, v := range count {
		s.colPairs += int64(v) * int64(v-1) / 2
		count[c] = 0 // count now tallies the current row's cells
	}
	for i, r := range rx {
		if c := ry[i]; r|c >= 0 {
			byRow[rowEnd[r]] = c
			rowEnd[r]++
		}
	}
	var lo int32
	for _, hi := range rowEnd {
		row := byRow[lo:hi]
		for _, c := range row {
			s.together += int64(count[c]) // the m-th object of a cell pairs with the m-1 before it
			count[c]++
		}
		for _, c := range row {
			count[c] = 0
		}
		lo = hi
	}
	return s
}

// RandIndex returns (a+d)/(a+b+c+d) in [0,1]; 1 means identical partitions.
// This is the dissimilarity base used by meta clustering (slide 29).
// Mismatched labeling lengths return NaN.
func RandIndex(x, y []int) float64 {
	if ValidatePair(x, y) != nil {
		return math.NaN()
	}
	return pairSums(x, y).rand()
}

// RandDissimilarities returns the m×m matrix of 1 − Rand index over every
// pair of the m labelings: entry [i][j] is bit-identical to
// 1 − RandIndex(labelings[i], labelings[j]), NaN for a pair of unequal
// lengths and 0 on the diagonal. Each labeling is relabelled to dense ids
// once, and one parallel.Each over the rows fills row i's pairs with every
// j > i and their mirror images, so for m labelings of n objects the cost
// is O(m·n) for the relabels plus O(n + kᵢ + kⱼ) per pair, and the matrix
// is the same for any worker count.
func RandDissimilarities(labelings [][]int, workers int) [][]float64 {
	m := len(labelings)
	total := 0
	for _, l := range labelings {
		total += len(l)
	}
	flatIDs := make([]int32, total)
	ids := make([][]int32, m)
	ks := make([]int, m)
	kMax := 0
	for i, l := range labelings {
		ids[i], flatIDs = flatIDs[:len(l):len(l)], flatIDs[len(l):]
		ks[i] = stats.Relabel(ids[i], l)
		kMax = max(kMax, ks[i])
	}
	flat := make([]float64, m*m)
	diss := make([][]float64, m)
	for i := range diss {
		diss[i] = flat[i*m : (i+1)*m : (i+1)*m]
	}
	parallel.Each(m, workers, func(i int) {
		if i == m-1 {
			return
		}
		n := len(ids[i])
		scratch := make([]int32, n+ks[i]+kMax)
		for j := i + 1; j < m; j++ {
			v := math.NaN()
			if len(ids[j]) == n {
				v = 1 - countSums(ids[i], ids[j], ks[i], ks[j], scratch).rand()
			}
			diss[i][j], diss[j][i] = v, v
		}
	})
	return diss
}

// AdjustedRand returns the Hubert–Arabie adjusted Rand index, which is 0 in
// expectation for independent partitions and 1 for identical ones.
// Mismatched labeling lengths return NaN. It reads the same contingency sums
// as CountPairs, so it never builds a kx×ky table either.
func AdjustedRand(x, y []int) float64 {
	if ValidatePair(x, y) != nil {
		return math.NaN()
	}
	s := pairSums(x, y)
	sumComb, sumRow, sumCol := float64(s.together), float64(s.rowPairs), float64(s.colPairs)
	total := float64(s.n * (s.n - 1) / 2)
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
