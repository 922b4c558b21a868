package stats

import (
	"fmt"
	"math"

	"multiclust/internal/core"
)

// ContingencyTable is the joint count table of two labelings over the same
// objects. Rows index the clusters of the first labeling, columns the
// clusters of the second, both in first-seen order. Noise objects (label < 0
// in either labeling) are excluded.
type ContingencyTable struct {
	Counts  [][]float64
	RowSums []float64
	ColSums []float64
	Total   float64
	RowIDs  []int // original label of each row
	ColIDs  []int // original label of each column
}

// NewContingencyTable builds the table for labelings a and b, which must have
// equal length; unequal lengths return an error wrapping core.ErrShape. Both
// labelings are relabelled in one pass, then Counts is allocated once at
// kx×ky, so the cost is O(n + kx·ky).
func NewContingencyTable(a, b []int) (*ContingencyTable, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("stats: contingency table labelings of length %d and %d: %w",
			len(a), len(b), core.ErrShape)
	}
	ra := make([]int32, len(a))
	rb := make([]int32, len(b))
	kx, ky := RelabelPair(ra, rb, a, b)
	t := &ContingencyTable{
		Counts:  make([][]float64, kx),
		RowSums: make([]float64, kx),
		ColSums: make([]float64, ky),
		RowIDs:  make([]int, 0, kx),
		ColIDs:  make([]int, 0, ky),
	}
	cells := make([]float64, kx*ky)
	for r := range t.Counts {
		t.Counts[r] = cells[r*ky : (r+1)*ky : (r+1)*ky]
	}
	for i, r := range ra {
		if r < 0 {
			continue
		}
		c := rb[i]
		// Ids are numbered in first-seen order, so an id equal to the
		// number of ids recorded so far is seen here for the first time.
		if int(r) == len(t.RowIDs) {
			t.RowIDs = append(t.RowIDs, a[i])
		}
		if int(c) == len(t.ColIDs) {
			t.ColIDs = append(t.ColIDs, b[i])
		}
		t.Counts[r][c]++
		t.RowSums[r]++
		t.ColSums[c]++
		t.Total++
	}
	return t, nil
}

// RelabelPair maps the labels of every object that is non-noise in both
// labelings to dense ids numbered in first-seen order: ra[i] in [0, kx) for
// a[i], rb[i] in [0, ky) for b[i]. An object that is noise (label < 0) in
// either labeling gets -1 in both. Labels in [0, len(a)) resolve through a
// slice and only larger ones through a map, so time and memory are O(len(a))
// whatever the label values. ra and rb must be as long as a and b, which
// must have equal length.
func RelabelPair(ra, rb []int32, a, b []int) (kx, ky int) {
	da := denseIDs{slot: make([]int32, len(a))}
	db := denseIDs{slot: make([]int32, len(b))}
	for i, l := range a {
		if l < 0 || b[i] < 0 {
			ra[i], rb[i] = -1, -1
			continue
		}
		ra[i], rb[i] = da.id(l), db.id(b[i])
	}
	return int(da.k), int(db.k)
}

// denseIDs hands out dense ids to labels in first-seen order.
type denseIDs struct {
	slot []int32       // id+1 of label l < len(slot); 0 means unseen
	far  map[int]int32 // id+1 of labels beyond the slot range
	k    int32         // ids handed out so far
}

func (d *denseIDs) id(l int) int32 {
	if l < len(d.slot) {
		if d.slot[l] == 0 {
			d.k++
			d.slot[l] = d.k
		}
		return d.slot[l] - 1
	}
	v, ok := d.far[l]
	if !ok {
		if d.far == nil {
			d.far = map[int]int32{}
		}
		d.k++
		v = d.k
		d.far[l] = v
	}
	return v - 1
}

// MutualInformation returns I(A;B) in nats.
func (t *ContingencyTable) MutualInformation() float64 {
	if t.Total == 0 {
		return 0
	}
	var mi float64
	for i, row := range t.Counts {
		for j, nij := range row {
			if nij == 0 {
				continue
			}
			pij := nij / t.Total
			pi := t.RowSums[i] / t.Total
			pj := t.ColSums[j] / t.Total
			mi += pij * math.Log(pij/(pi*pj))
		}
	}
	if mi < 0 { // numerical noise
		mi = 0
	}
	return mi
}

// EntropyRow returns H(A) in nats.
func (t *ContingencyTable) EntropyRow() float64 { return Entropy(t.RowSums) }

// EntropyCol returns H(B) in nats.
func (t *ContingencyTable) EntropyCol() float64 { return Entropy(t.ColSums) }

// JointEntropy returns H(A,B) in nats.
func (t *ContingencyTable) JointEntropy() float64 {
	flat := make([]float64, 0, len(t.Counts)*max(1, len(t.ColIDs)))
	for _, row := range t.Counts {
		flat = append(flat, row...)
	}
	return Entropy(flat)
}

// ConditionalEntropyRowGivenCol returns H(A|B) = H(A,B) - H(B) in nats.
func (t *ContingencyTable) ConditionalEntropyRowGivenCol() float64 {
	h := t.JointEntropy() - t.EntropyCol()
	if h < 0 {
		h = 0
	}
	return h
}

// Uniformity measures how close the table is to the fully independent
// (uniform) profile that Hossain et al. (2010) maximize for disparate
// clusterings. It is 1 - NMI, so 1 means the labelings are independent and
// 0 means they determine each other.
func (t *ContingencyTable) Uniformity() float64 { return 1 - NMI(t) }

// NMI returns the normalized mutual information I(A;B)/sqrt(H(A)H(B)),
// in [0,1]. If either entropy is zero, NMI is defined as 0 unless both are
// zero and the labelings are identical-trivial, in which case it is 1.
func NMI(t *ContingencyTable) float64 {
	ha, hb := t.EntropyRow(), t.EntropyCol()
	if ha == 0 && hb == 0 {
		return 1
	}
	if ha == 0 || hb == 0 {
		return 0
	}
	v := t.MutualInformation() / math.Sqrt(ha*hb)
	if v > 1 {
		v = 1
	}
	return v
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
