// Package alternative implements the "given knowledge → iterative
// alternative" paradigm of the tutorial's section 2: COALA's constraint-
// driven agglomeration (Bae & Bailey 2006), a conditional information
// bottleneck (Chechik & Tishby 2002; Gondek & Hofmann 2003/2004), and a
// minCEntropy-style conditional objective (Vinh & Epps 2010).
package alternative

import (
	"context"
	"fmt"

	"multiclust/internal/core"
	"multiclust/internal/dist"
	"multiclust/internal/obs"
	"multiclust/internal/parallel"
)

// CoalaConfig controls a COALA run.
type CoalaConfig struct {
	K int // clusters in the alternative solution
	// W trades quality against dissimilarity (slide 33): a quality merge is
	// taken when dQual < W*dDiss. Large W prefers quality merges, small W
	// prefers dissimilarity merges. Default 1.
	W        float64
	Distance dist.Func // default Euclidean
	Workers  int       // parallelism of the pair seeding; <=0 resolves via internal/parallel
}

// CoalaResult records the alternative clustering and merge statistics.
type CoalaResult struct {
	Clustering *core.Clustering
	// QualityMerges and DissimilarityMerges count which branch of the merge
	// rule fired, exposing the W trade-off directly.
	QualityMerges       int
	DissimilarityMerges int
}

// coalaGroup is one active agglomeration group. Groups are identified by a
// monotonically increasing id (singletons 0..n-1, the g-th merge creates id
// n+g) and never mutate after creation, so a heap entry naming two ids
// refers to a fixed pair of member sets with a fixed average-link distance.
type coalaGroup struct {
	members []int
	origSet []int // original-cluster labels present in the group, ascending
}

// pairEntry is one merge candidate: the average-link distance between the
// fixed groups a < b (group ids). Entries are never updated in place —
// merging kills both ids and pushes fresh entries for the merged group —
// so an entry whose ids are both alive always carries the current value.
type pairEntry struct {
	d    float64
	a, b int
}

// pairLess is the candidate order (d, a, b). The id tie-break reproduces
// the full-rescan reference exactly: scanning pairs of sorted group ids
// with a strict < keeps the lexicographically smallest (a, b) among equal
// distances, which is precisely this comparator's minimum. The order is
// total over pair values — a pair pushed twice yields two identical
// entries — so the surfaced minimum is independent of push order and of
// the heap's internal layout.
func pairLess(x, y pairEntry) bool {
	if x.d < y.d {
		return true
	}
	if y.d < x.d {
		return false
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}

// pairHeap is a hand-rolled binary min-heap of merge candidates ordered by
// pairLess. container/heap's interface indirection (a dynamic Less/Swap
// call per level) dominated the merge-loop profile; inlining the sift
// operations over the concrete slice removes it.
type pairHeap []pairEntry

func (h pairHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h pairHeap) siftDown(i int) {
	n := len(h)
	for {
		m := 2*i + 1
		if m >= n {
			return
		}
		if r := m + 1; r < n && pairLess(h[r], h[m]) {
			m = r
		}
		if !pairLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (h *pairHeap) push(e pairEntry) {
	s := append(*h, e)
	*h = s
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !pairLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// popTop removes the minimum.
func (h *pairHeap) popTop() {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	s[:n].siftDown(0)
}

// unionSorted merges two ascending label sets into a fresh ascending set.
func unionSorted(x, y []int) []int {
	out := make([]int, 0, len(x)+len(y))
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			out = append(out, x[i])
			i++
		case y[j] < x[i]:
			out = append(out, y[j])
			j++
		default:
			out = append(out, x[i])
			i++
			j++
		}
	}
	out = append(out, x[i:]...)
	return append(out, y[j:]...)
}

// Coala computes an alternative clustering to given, using cannot-link
// constraints derived from it: objects sharing a cluster in given must not
// be grouped again. Average-link agglomeration proceeds with the dual merge
// rule of the paper:
//
//	q  = best merge ignoring constraints (smallest average-link distance)
//	d  = best merge among constraint-respecting pairs
//	if dist(q) < W*dist(d) take q, else take d.
func Coala(points [][]float64, given *core.Clustering, cfg CoalaConfig) (*CoalaResult, error) {
	return CoalaContext(context.Background(), points, given, cfg)
}

// CoalaContext is Coala with cancellation: ctx is polled at every merge
// boundary and, when it fires, the current groups are flattened into a
// valid clustering (more than K clusters, each a completed merge state) and
// returned wrapped in core.ErrInterrupted. With a background context the
// output is byte-identical to Coala.
//
// The agglomeration core keeps the pairwise linkage sums in a dense
// triangular array indexed by group slot (a merged group reuses its first
// parent's slot, so n slots suffice for the whole run) and the merge
// candidates in two lazy-deletion min-heaps — one over all pairs (the
// quality branch q) and one over constraint-respecting pairs (the
// dissimilarity branch d). Each heap holds, for every live group, an entry
// for its current nearest partner (O(n) entries, not O(n²)): a pair's
// average-link distance never changes while both groups are alive (only
// merges create new pairs), so a registered nearest-partner entry stays
// exact until an endpoint dies, and a pair's compatibility is likewise
// fixed at push time. When a stale entry (a dead endpoint) surfaces, the
// surviving endpoint's next nearest partner is rescanned from the dense
// sums and pushed — the repair happens before any larger key can win, so
// the heap minimum is always the true minimum over live pairs and the
// merge sequence is byte-identical to the reference implementation's
// O(G²) rescan (pinned by the property tests). The Lance–Williams
// average-link update (sum additivity) keeps every candidate distance
// exactly equal to the rescan's value.
func CoalaContext(ctx context.Context, points [][]float64, given *core.Clustering, cfg CoalaConfig) (*CoalaResult, error) {
	n := len(points)
	if n == 0 {
		return nil, core.ErrEmptyDataset
	}
	if err := given.Validate(n); err != nil {
		return nil, err
	}
	if cfg.K <= 0 || cfg.K > n {
		return nil, fmt.Errorf("alternative: invalid K=%d", cfg.K)
	}
	if cfg.W <= 0 {
		cfg.W = 1
	}
	if cfg.Distance == nil {
		cfg.Distance = dist.Euclidean
	}
	rec := obs.From(ctx)
	ctx, endSpan := obs.SpanCtx(ctx, rec, "coala.run")
	defer endSpan()

	// Group state, indexed by id. Ids are never reused: singletons take
	// 0..n-1 and each of the at most n-1 merges allocates the next id, so
	// 2n-1 slots bound the run.
	groups := make([]*coalaGroup, 2*n)
	alive := make([]bool, 2*n)
	idSlot := make([]int, 2*n) // id → slot into the triangular sum array
	for i := 0; i < n; i++ {
		var gs []int
		if l := given.Labels[i]; l >= 0 {
			gs = []int{l}
		}
		groups[i] = &coalaGroup{members: []int{i}, origSet: gs}
		alive[i] = true
		idSlot[i] = i
	}

	// sums[tri(sa,sb)] is the sum of point-pair distances between the groups
	// occupying slots sa and sb, so the average link is sum/(size_a*size_b)
	// and a merge updates the row of the surviving slot by addition.
	sums := make([]float64, n*(n-1)/2)
	tri := func(i, j int) int {
		if i > j {
			i, j = j, i
		}
		return i*n - i*(i+1)/2 + j - i - 1
	}

	// Nearest-partner seeding, fanned out per row: worker i fills row i of
	// the triangular sums and computes singleton i's nearest partner and
	// nearest compatible partner over the full distance row. Every result
	// lands at a fixed slot, so the fill is byte-identical for any worker
	// count. Distances are computed directly into the triangular sums —
	// no n×n pairwise matrix is materialized (the former matrix was ~2x
	// the working set and pure GC churn). Each unordered pair is evaluated
	// as distance(points[a], points[b]) with a < b everywhere, so the o < i
	// re-evaluation of a pair owned by row o yields the identical bits
	// even for an asymmetric distance. The heaps start with one entry per
	// group — its current nearest (compatible) partner — rather than all
	// n(n-1)/2 pairs; stale-pop repair in peek keeps that invariant as
	// groups die.
	const noPartner = -1
	seedAll := make([]pairEntry, n)
	seedCompat := make([]pairEntry, n)
	seedHasCompat := make([]bool, n)
	// parallel.For, not Each: every row costs the same O(n) scan, so static
	// contiguous blocks avoid the per-index cursor and panic-guard overhead.
	parallel.For(n, cfg.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			off := i*n - i*(i+1)/2 - i - 1
			li := given.Labels[i]
			bestA := pairEntry{a: noPartner, b: noPartner}
			bestC := pairEntry{}
			haveA, haveC := false, false
			for o := 0; o < n; o++ {
				if o == i {
					continue
				}
				a, b := i, o
				if o < i {
					a, b = o, i
				}
				v := cfg.Distance(points[a], points[b])
				if o > i {
					sums[off+o] = v
				}
				e := pairEntry{d: v, a: a, b: b}
				if !haveA || pairLess(e, bestA) {
					bestA, haveA = e, true
				}
				if l := given.Labels[o]; li < 0 || li != l {
					if !haveC || pairLess(e, bestC) {
						bestC, haveC = e, true
					}
				}
			}
			seedAll[i] = bestA
			seedCompat[i] = bestC
			seedHasCompat[i] = haveC
		}
	})

	// regAll/regCompat record, per live group, the partner named by its
	// registered entry — the best candidate it has pushed so far. A stale
	// pop whose surviving endpoint still registers the dead partner means
	// the group's nearest partner was lost and its next nearest must be
	// rescanned; any other stale entry is dominated garbage (the endpoint
	// registered something better since) and is dropped without a rescan.
	// entAll/entCompat hold the registered entries so the merge loop can
	// push a fresh (o, merged) candidate only when it improves on o's
	// current registration, keeping the heaps at O(live groups) entries.
	regAll := make([]int, 2*n)
	regCompat := make([]int, 2*n)
	entAll := make([]pairEntry, 2*n)
	entCompat := make([]pairEntry, 2*n)
	heapAll := make(pairHeap, 0, 4*n)
	heapCompat := make(pairHeap, 0, 4*n)
	var stalePops, pairsPushed int64
	for i := 0; i < n; i++ {
		if e := seedAll[i]; e.a != noPartner {
			heapAll = append(heapAll, e)
			regAll[i] = e.a + e.b - i
			entAll[i] = e
			pairsPushed++
		} else {
			regAll[i] = noPartner
		}
		if seedHasCompat[i] {
			e := seedCompat[i]
			heapCompat = append(heapCompat, e)
			regCompat[i] = e.a + e.b - i
			entCompat[i] = e
			pairsPushed++
		} else {
			regCompat[i] = noPartner
		}
	}
	heapAll.init()
	heapCompat.init()

	compatible := func(a, b *coalaGroup) bool {
		// A cannot-link exists between the groups iff they share an original
		// cluster label (any two objects of that label are cannot-linked).
		// Both label sets are ascending; a two-pointer sweep finds overlap.
		x, y := a.origSet, b.origSet
		for i, j := 0, 0; i < len(x) && j < len(y); {
			switch {
			case x[i] < y[j]:
				i++
			case y[j] < x[i]:
				j++
			default:
				return false
			}
		}
		return true
	}

	res := &CoalaResult{}
	nextID := n
	activeCount := n

	// live is the compact set of live group ids (arbitrary but
	// deterministic order — maintained by swap-remove in serial code).
	// The merge sweep and the rescans iterate it directly instead of
	// walking all allocated ids with a liveness filter; iteration order is
	// immaterial to the outcome because every minimum is selected under
	// the total order pairLess and every other write lands at a per-group
	// slot.
	live := make([]int, n, 2*n)
	livePos := make([]int, 2*n)
	for i := 0; i < n; i++ {
		live[i] = i
		livePos[i] = i
	}
	dropLive := func(id int) {
		p := livePos[id]
		last := live[len(live)-1]
		live[p] = last
		livePos[last] = p
		live = live[:len(live)-1]
	}

	// avgEntry reads the exact average-link candidate for live groups x and
	// o from the dense sums — the same division expression used for every
	// pushed entry, so a rescanned value is bit-identical to a pushed one.
	avgEntry := func(x, o int) pairEntry {
		d := sums[tri(idSlot[x], idSlot[o])] / float64(len(groups[x].members)*len(groups[o].members))
		a, b := x, o
		if o < x {
			a, b = o, x
		}
		return pairEntry{d: d, a: a, b: b}
	}
	// rescan finds live group x's nearest (optionally compatible) live
	// partner, O(live groups) per call; it runs only when a stale pop just
	// removed x's registered nearest, which happens at most once per heap
	// per merged-away partner.
	rescan := func(x int, compatOnly bool) (pairEntry, bool) {
		var best pairEntry
		have := false
		for _, o := range live {
			if o == x {
				continue
			}
			if compatOnly && !compatible(groups[x], groups[o]) {
				continue
			}
			if e := avgEntry(x, o); !have || pairLess(e, best) {
				best, have = e, true
			}
		}
		return best, have
	}
	// peek surfaces the minimum live candidate of h. Stale entries (a dead
	// endpoint) are popped; when the popped entry was a surviving
	// endpoint's registered nearest, its replacement is rescanned and
	// pushed before the loop re-reads the top — the replacement has a
	// larger key than the stale entry it succeeds, but may undercut
	// whatever currently sits at the top, so the minimum over live pairs
	// is always restored before peek returns.
	peek := func(h *pairHeap, compatOnly bool, reg []int, ent []pairEntry) (pairEntry, bool) {
		for len(*h) > 0 {
			top := (*h)[0]
			if alive[top.a] && alive[top.b] {
				return top, true
			}
			h.popTop()
			stalePops++
			for _, x := range [2]int{top.a, top.b} {
				if !alive[x] || reg[x] != top.a+top.b-x {
					continue
				}
				if e, ok := rescan(x, compatOnly); ok {
					reg[x] = e.a + e.b - x
					ent[x] = e
					h.push(e)
					pairsPushed++
				} else {
					reg[x] = noPartner
				}
			}
		}
		return pairEntry{}, false
	}

	var interrupted error
	for activeCount > cfg.K {
		// Merge-boundary cancellation: every completed merge is kept, so the
		// flattened best-so-far below is a valid (if coarser-than-requested)
		// clustering.
		if err := ctx.Err(); err != nil {
			interrupted = err
			break
		}
		qe, okQ := peek(&heapAll, false, regAll, entAll)
		if !okQ {
			break // unreachable while activeCount >= 2: every live pair has an entry
		}
		de, okD := peek(&heapCompat, true, regCompat, entCompat)
		var ma, mb int
		if !okD || qe.d < cfg.W*de.d {
			// No constraint-respecting merge exists, or quality wins.
			ma, mb = qe.a, qe.b
			res.QualityMerges++
		} else {
			ma, mb = de.a, de.b
			res.DissimilarityMerges++
		}
		ga, gb := groups[ma], groups[mb]
		merged := &coalaGroup{
			members: append(append([]int(nil), ga.members...), gb.members...),
			origSet: unionSorted(ga.origSet, gb.origSet),
		}
		sa, sb := idSlot[ma], idSlot[mb]
		alive[ma], alive[mb] = false, false
		dropLive(ma)
		dropLive(mb)
		// Lance–Williams update against every other live group, in ascending
		// id order. Each fresh (o, merged) candidate is pushed only when it
		// improves on o's registered entry — otherwise the registration
		// (whose key is no larger) covers it, surfacing first and triggering
		// a rescan that rediscovers the pair if it has become o's nearest.
		// The merged group's own nearest (compatible) partner falls out of
		// the same sweep and is registered for the new id.
		msz := len(merged.members)
		var bestM, bestMC pairEntry
		haveM, haveMC := false, false
		for _, o := range live {
			so := idSlot[o]
			ta := tri(sa, so)
			s := sums[ta] + sums[tri(sb, so)]
			sums[ta] = s
			e := pairEntry{d: s / float64(msz*len(groups[o].members)), a: o, b: nextID}
			if !haveM || pairLess(e, bestM) {
				bestM, haveM = e, true
			}
			if regAll[o] == noPartner || pairLess(e, entAll[o]) {
				heapAll.push(e)
				regAll[o] = nextID
				entAll[o] = e
				pairsPushed++
			}
			if compatible(groups[o], merged) {
				if !haveMC || pairLess(e, bestMC) {
					bestMC, haveMC = e, true
				}
				if regCompat[o] == noPartner || pairLess(e, entCompat[o]) {
					heapCompat.push(e)
					regCompat[o] = nextID
					entCompat[o] = e
					pairsPushed++
				}
			}
		}
		groups[nextID] = merged
		alive[nextID] = true
		idSlot[nextID] = sa
		livePos[nextID] = len(live)
		live = append(live, nextID)
		if haveM {
			heapAll.push(bestM)
			regAll[nextID] = bestM.a
			entAll[nextID] = bestM
			pairsPushed++
		} else {
			regAll[nextID] = noPartner
		}
		if haveMC {
			heapCompat.push(bestMC)
			regCompat[nextID] = bestMC.a
			entCompat[nextID] = bestMC
			pairsPushed++
		} else {
			regCompat[nextID] = noPartner
		}
		nextID++
		activeCount--
	}

	if rec != nil {
		obs.Count(rec, "coala.quality_merges", int64(res.QualityMerges))
		obs.Count(rec, "coala.dissimilarity_merges", int64(res.DissimilarityMerges))
		obs.Count(rec, "coala.candidate_pairs", pairsPushed)
		obs.Count(rec, "coala.heap_stale_pops", stalePops)
	}

	// Flatten the live groups in ascending id order — identical to the
	// sorted-key walk of the reference implementation, because merge ids
	// increase monotonically.
	labels := make([]int, n)
	cid := 0
	for id := 0; id < nextID; id++ {
		if !alive[id] {
			continue
		}
		for _, o := range groups[id].members {
			labels[o] = cid
		}
		cid++
	}
	res.Clustering = core.NewClustering(labels)
	if interrupted != nil {
		return res, fmt.Errorf("alternative: coala interrupted: %v: %w", interrupted, core.ErrInterrupted)
	}
	return res, nil
}
