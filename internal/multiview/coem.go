// Package multiview implements the "multiple given views/sources" paradigm
// of the tutorial's section 5: co-EM over two conditionally independent
// views (Bickel & Scheffer 2004), multi-represented DBSCAN with union and
// intersection neighbourhoods (Kailing et al. 2004a), two-view spectral
// clustering (de Sa 2005), an mSC-style non-redundant multi-view search
// (Niu & Dy 2010), and consensus clustering over random projections
// (Fern & Brodley 2003) with the shared-mutual-information objective of
// Strehl & Ghosh (2002).
package multiview

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"multiclust/internal/core"
	"multiclust/internal/em"
	"multiclust/internal/obs"
)

// CoEMConfig controls a co-EM run.
type CoEMConfig struct {
	K       int
	MaxIter int // default 30; co-EM need not converge (slide 104), so the cap is the termination criterion
	Seed    int64
	MinVar  float64
	Tol     float64 // early-stop tolerance on combined log-likelihood, default 1e-6
}

// CoEMIteration records the state after one interleaved round.
type CoEMIteration struct {
	LogLikA, LogLikB float64
	Agreement        float64 // fraction of objects on which the views' hard labels agree under the best label matching
}

// CoEMResult is a fitted co-EM model pair.
type CoEMResult struct {
	ModelA, ModelB *em.Model
	PosteriorA     [][]float64
	PosteriorB     [][]float64
	Clustering     *core.Clustering // consensus: argmax of averaged posteriors
	History        []CoEMIteration
	Converged      bool // false when the iteration cap stopped a still-moving pair
}

// CoEM runs interleaved expectation–maximization across two views of the
// same objects (slide 102): view A's M-step consumes the posteriors computed
// in view B and vice versa, bootstrapping two hypotheses that maximize
// agreement. Both views must describe the same n objects.
func CoEM(viewA, viewB [][]float64, cfg CoEMConfig) (*CoEMResult, error) {
	n := len(viewA)
	if n == 0 {
		return nil, core.ErrEmptyDataset
	}
	if len(viewB) != n {
		return nil, fmt.Errorf("multiview: views disagree on n: %d vs %d", n, len(viewB))
	}
	if cfg.K <= 0 || cfg.K > n {
		return nil, fmt.Errorf("multiview: invalid K=%d", cfg.K)
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 30
	}
	if cfg.MinVar <= 0 {
		cfg.MinVar = 1e-6
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-6
	}

	rec := obs.Default()
	ctx, endSpan := obs.SpanCtx(context.Background(), rec, "coem.run")
	defer endSpan()

	// Initialize view A with a short plain EM fit; view B starts from A's
	// posteriors (the bootstrap step). The span context nests the
	// bootstrap's em.fit under coem.run.
	initA, err := em.FitContext(ctx, viewA, em.Config{K: cfg.K, Seed: cfg.Seed, MaxIter: 10, MinVar: cfg.MinVar})
	if err != nil {
		return nil, err
	}
	modelA := initA.Model
	postA := initA.Posterior
	postB := make([][]float64, n)
	for i := range postB {
		postB[i] = append([]float64(nil), postA[i]...)
	}
	modelB := em.RandomModel(viewB, cfg.K, cfg.Seed+1)

	res := &CoEMResult{}
	prevLL := math.Inf(-1)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		// Phase span: one interleaved round, nested under coem.run so the
		// trace tree exposes the per-round cost.
		combined := func() float64 {
			_, end := obs.SpanCtx(ctx, rec, "coem.round")
			defer end()
			// View B: maximize with A's posteriors, then expectation in B.
			em.MStep(viewB, postA, modelB, cfg.MinVar)
			llB := em.EStep(viewB, modelB, postB, cfg.MinVar, 0)
			// View A: maximize with B's posteriors, then expectation in A.
			em.MStep(viewA, postB, modelA, cfg.MinVar)
			llA := em.EStep(viewA, modelA, postA, cfg.MinVar, 0)

			res.History = append(res.History, CoEMIteration{
				LogLikA:   llA,
				LogLikB:   llB,
				Agreement: agreement(postA, postB),
			})
			if rec != nil {
				obs.Count(rec, "coem.rounds", 1)
				obs.Observe(rec, "coem.agreement", iter, res.History[iter].Agreement)
				obs.Observe(rec, "coem.loglik_a", iter, llA)
				obs.Observe(rec, "coem.loglik_b", iter, llB)
			}
			return llA + llB
		}()
		if math.Abs(combined-prevLL) <= cfg.Tol*(1+math.Abs(combined)) {
			res.Converged = true
			break
		}
		prevLL = combined
	}
	res.ModelA, res.ModelB = modelA, modelB
	res.PosteriorA, res.PosteriorB = postA, postB

	// Consensus assignment: average the two posteriors.
	avg := make([][]float64, n)
	for i := range avg {
		row := make([]float64, cfg.K)
		for c := 0; c < cfg.K; c++ {
			row[c] = 0.5 * (postA[i][c] + postB[i][c])
		}
		avg[i] = row
	}
	res.Clustering = em.Harden(avg)
	return res, nil
}

// Agreement returns the fraction of objects whose hard labels agree across
// the two posterior matrices, maximized over a greedy label matching — the
// metric CoEM records per round, exported so the streaming co-EM snapshot
// can report the same number for its online rounds.
func Agreement(a, b [][]float64) float64 { return agreement(a, b) }

// agreement returns the fraction of objects whose hard labels agree across
// the two posterior matrices, maximized over a greedy label matching (the
// label spaces of the two views are not aligned a priori).
func agreement(a, b [][]float64) float64 {
	n := len(a)
	if n == 0 {
		return 0
	}
	la := em.Harden(a).Labels
	lb := em.Harden(b).Labels
	// Greedy matching on the contingency counts, with deterministic
	// tie-breaking (count desc, then pair order).
	counts := map[[2]int]int{}
	for i := range la {
		counts[[2]int{la[i], lb[i]}]++
	}
	type pairCount struct {
		pair  [2]int
		count int
	}
	pairs := make([]pairCount, 0, len(counts))
	for p, c := range counts {
		pairs = append(pairs, pairCount{pair: p, count: c})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].count != pairs[j].count {
			return pairs[i].count > pairs[j].count
		}
		if pairs[i].pair[0] != pairs[j].pair[0] {
			return pairs[i].pair[0] < pairs[j].pair[0]
		}
		return pairs[i].pair[1] < pairs[j].pair[1]
	})
	usedA := map[int]bool{}
	usedB := map[int]bool{}
	match := 0
	for _, pc := range pairs {
		if usedA[pc.pair[0]] || usedB[pc.pair[1]] {
			continue
		}
		match += pc.count
		usedA[pc.pair[0]] = true
		usedB[pc.pair[1]] = true
	}
	return float64(match) / float64(n)
}

// ErrViewMismatch is returned by multi-view algorithms whose views disagree
// on the object count.
var ErrViewMismatch = errors.New("multiview: views must describe the same objects")
