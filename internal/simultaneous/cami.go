package simultaneous

import (
	"fmt"
	"math"

	"multiclust/internal/core"
	"multiclust/internal/em"
	"multiclust/internal/kmeans"
	"multiclust/internal/stats"
)

// CAMIConfig controls the CAMI run.
type CAMIConfig struct {
	K1, K2   int     // component counts of the two mixtures
	Mu       float64 // mutual-information penalty weight (slide 43), default 5
	MaxIter  int     // default 100
	Restarts int     // default 6; the best penalized objective wins
	Seed     int64
	MinVar   float64 // variance floor, default 1e-6
	Tol      float64 // relative objective tolerance, default 1e-6
}

// CAMIResult holds the two decorrelated mixture clusterings.
type CAMIResult struct {
	Clustering1, Clustering2 *core.Clustering
	Model1, Model2           *em.Model
	LogLik1, LogLik2         float64
	MutualInfo               float64 // soft I(C1;C2) in nats at convergence
	Objective                float64 // L1 + L2 - Mu*n*I
	Iterations               int
}

// CAMI fits two Gaussian mixture models simultaneously, maximizing
//
//	L(Theta1) + L(Theta2) - Mu * n * I(C1; C2)
//
// (Dang & Bailey 2010a). The mutual information between the two clusterings
// is evaluated on the smoothed soft joint p(c1,c2) = (1/n) sum_x
// post1[x] post2[x]^T, and each mixture's E-step carries the penalty
// gradient term exp(-Mu * sum_j post_other[x][j] * log(p_cj/(p_c q_j))), so
// assignments that would correlate the clusterings are suppressed — a
// coordinate-ascent scheme on the penalized variational objective. Several
// restarts are taken and the best penalized objective kept, since the
// objective is non-convex and EM pairs can lock onto the same structure.
func CAMI(points [][]float64, cfg CAMIConfig) (*CAMIResult, error) {
	n := len(points)
	if n == 0 {
		return nil, core.ErrEmptyDataset
	}
	if cfg.K1 <= 0 || cfg.K2 <= 0 || cfg.K1 > n || cfg.K2 > n {
		return nil, fmt.Errorf("simultaneous: invalid K1=%d K2=%d", cfg.K1, cfg.K2)
	}
	if cfg.Mu < 0 {
		return nil, fmt.Errorf("simultaneous: negative Mu")
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 200
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 6
	}
	if cfg.MinVar <= 0 {
		cfg.MinVar = 1e-6
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-6
	}

	var best *CAMIResult
	for r := 0; r < cfg.Restarts; r++ {
		var m1, m2 *em.Model
		if r == 0 {
			// First restart: both models from k-means fits (different
			// seeds), the strongest unpenalized starting point.
			m1 = kmeansModel(points, cfg.K1, cfg.Seed, cfg.MinVar)
			m2 = kmeansModel(points, cfg.K2, cfg.Seed+7919, cfg.MinVar)
		} else {
			m1 = em.RandomModel(points, cfg.K1, cfg.Seed+int64(2*r))
			m2 = em.RandomModel(points, cfg.K2, cfg.Seed+int64(2*r+1))
		}
		res := camiOnce(points, m1, m2, cfg)
		if best == nil || res.Objective > best.Objective {
			best = res
		}
	}
	return best, nil
}

func camiOnce(points [][]float64, m1, m2 *em.Model, cfg CAMIConfig) *CAMIResult {
	n := len(points)
	post1 := newPost(n, cfg.K1)
	post2 := newPost(n, cfg.K2)
	em.EStep(points, m1, post1, cfg.MinVar, 0)
	em.EStep(points, m2, post2, cfg.MinVar, 0)

	prevObj := math.Inf(-1)
	res := &CAMIResult{}
	// The penalty weight is annealed in over the first sweeps: a full-strength
	// MI penalty from a correlated start either oscillates or collapses a
	// mixture to one effective component (a degenerate zero-MI solution),
	// while a gently increasing penalty lets the pair decorrelate first.
	const annealIters = 60
	for iter := 0; iter < cfg.MaxIter; iter++ {
		mu := cfg.Mu
		if iter < annealIters {
			mu = cfg.Mu * float64(iter+1) / annealIters
		}
		ll1 := penalizedEStep(points, m1, post1, post2, mu, cfg.MinVar)
		em.MStep(points, post1, m1, cfg.MinVar)
		ll2 := penalizedEStep(points, m2, post2, post1, mu, cfg.MinVar)
		em.MStep(points, post2, m2, cfg.MinVar)

		mi := softMI(post1, post2)
		obj := ll1 + ll2 - cfg.Mu*float64(n)*mi
		res.Iterations = iter + 1
		res.LogLik1, res.LogLik2, res.MutualInfo, res.Objective = ll1, ll2, mi, obj
		if math.Abs(obj-prevObj) <= cfg.Tol*(1+math.Abs(obj)) {
			break
		}
		prevObj = obj
	}
	res.Model1, res.Model2 = m1, m2
	res.Clustering1 = em.Harden(post1)
	res.Clustering2 = em.Harden(post2)
	return res
}

// kmeansModel builds a diagonal GMM from a k-means fit.
func kmeansModel(points [][]float64, k int, seed int64, minVar float64) *em.Model {
	km, err := kmeans.Run(points, kmeans.Config{K: k, Seed: seed, Restarts: 3})
	if err != nil {
		return em.RandomModel(points, k, seed)
	}
	d := len(points[0])
	m := &em.Model{Pi: make([]float64, k), Means: km.Centers, Vars: make([][]float64, k)}
	counts := make([]float64, k)
	for i, x := range points {
		c := km.Clustering.Labels[i]
		counts[c]++
		if m.Vars[c] == nil {
			m.Vars[c] = make([]float64, d)
		}
		for j, v := range x {
			diff := v - km.Centers[c][j]
			m.Vars[c][j] += diff * diff
		}
	}
	for c := 0; c < k; c++ {
		if m.Vars[c] == nil {
			m.Vars[c] = make([]float64, d)
		}
		for j := range m.Vars[c] {
			if counts[c] > 0 {
				m.Vars[c][j] /= counts[c]
			}
			if m.Vars[c][j] < minVar {
				m.Vars[c][j] = minVar
			}
		}
		m.Pi[c] = (counts[c] + 1) / (float64(len(points)) + float64(k))
	}
	return m
}

func newPost(n, k int) [][]float64 {
	p := make([][]float64, n)
	for i := range p {
		p[i] = make([]float64, k)
	}
	return p
}

// jointSmoothing mixes the soft joint with the uniform table so the MI
// gradient stays bounded even for empty joint cells.
const jointSmoothing = 0.02

// penalizedEStep fills post with MI-penalized responsibilities for model m,
// given the other clustering's current responsibilities, and returns the
// (unpenalized) log-likelihood of the data under m.
func penalizedEStep(points [][]float64, m *em.Model, post, other [][]float64, mu, minVar float64) float64 {
	k := len(m.Pi)
	ko := len(other[0])

	joint, pc, qc := softJoint(post, other)
	// Smooth toward the uniform joint (marginals smoothed consistently).
	uJ := jointSmoothing / float64(k*ko)
	uC := jointSmoothing / float64(k)
	uO := jointSmoothing / float64(ko)
	for c := 0; c < k; c++ {
		for j := 0; j < ko; j++ {
			joint[c][j] = (1-jointSmoothing)*joint[c][j] + uJ
		}
	}
	for c := 0; c < k; c++ {
		pc[c] = (1-jointSmoothing)*pc[c] + uC
	}
	for j := 0; j < ko; j++ {
		qc[j] = (1-jointSmoothing)*qc[j] + uO
	}

	// Pointwise MI penalty: grad[c][j] = log(p_cj / (p_c q_j)).
	grad := make([][]float64, k)
	for c := 0; c < k; c++ {
		grad[c] = make([]float64, ko)
		for j := 0; j < ko; j++ {
			grad[c][j] = math.Log(joint[c][j] / (pc[c] * qc[j]))
		}
	}

	mix := stats.NewDiagMixture(m.Pi, m.Means, m.Vars, minVar)
	var ll float64
	logp := make([]float64, k)
	for i, x := range points {
		mix.LogJoint(x, logp)
		ll += stats.LogSumExp(logp)
		for c := 0; c < k; c++ {
			var pen float64
			for j := 0; j < ko; j++ {
				pen += other[i][j] * grad[c][j]
			}
			logp[c] -= mu * pen
		}
		lse := stats.LogSumExp(logp)
		for c := 0; c < k; c++ {
			post[i][c] = math.Exp(logp[c] - lse)
		}
	}
	return ll
}

// softJoint returns p(c1,c2), p(c1), p(c2) from two responsibility matrices.
func softJoint(a, b [][]float64) (joint [][]float64, pa, pb []float64) {
	n := len(a)
	ka, kb := len(a[0]), len(b[0])
	joint = make([][]float64, ka)
	for c := range joint {
		joint[c] = make([]float64, kb)
	}
	pa = make([]float64, ka)
	pb = make([]float64, kb)
	inv := 1 / float64(n)
	for i := 0; i < n; i++ {
		for c, av := range a[i] {
			pa[c] += av * inv
			for j, bv := range b[i] {
				joint[c][j] += av * bv * inv
			}
		}
	}
	for i := 0; i < n; i++ {
		for j, bv := range b[i] {
			pb[j] += bv * inv
		}
	}
	return joint, pa, pb
}

// softMI evaluates I(C1;C2) in nats from soft assignments.
func softMI(a, b [][]float64) float64 {
	joint, pa, pb := softJoint(a, b)
	var mi float64
	for c := range joint {
		for j := range joint[c] {
			p := joint[c][j]
			if p <= 1e-15 {
				continue
			}
			mi += p * math.Log(p/(pa[c]*pb[j]))
		}
	}
	if mi < 0 {
		mi = 0
	}
	return mi
}
