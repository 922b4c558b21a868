package em

// SuffStats holds the additive sufficient statistics of a diagonal Gaussian
// mixture: per-component responsibility mass, responsibility-weighted
// coordinate sums, and responsibility-weighted squared-coordinate sums. They
// are the mergeable core of the streaming EM path (internal/stream's online
// co-EM): statistics of two row batches add, and exponential forgetting is a
// single Scale call, so an online M-step is Scale + Add + ModelInto.
//
// The closed-form moments (var = E[x²] − mean²) differ in floating point
// from the batch MStep's two-pass variance, so SuffStats is deliberately NOT
// used by MStep — the batch trajectory stays byte-identical to the historic
// implementation, and the streaming trajectory is documented as its own
// deterministic sequence.
type SuffStats struct {
	W  []float64   // per-component responsibility mass   Σ_i r_ic
	X  [][]float64 // per-component weighted sums          Σ_i r_ic·x_i
	XX [][]float64 // per-component weighted squared sums  Σ_i r_ic·x_i²
	N  float64     // total (possibly decayed) row mass
}

// NewSuffStats allocates zeroed statistics for k components in d dimensions.
func NewSuffStats(k, d int) *SuffStats {
	s := &SuffStats{
		W:  make([]float64, k),
		X:  make([][]float64, k),
		XX: make([][]float64, k),
	}
	for c := 0; c < k; c++ {
		s.X[c] = make([]float64, d)
		s.XX[c] = make([]float64, d)
	}
	return s
}

// Scale multiplies every statistic by lambda — exponential forgetting with
// factor lambda in (0, 1]. Scale(1) is the identity; the call is a pure
// function of the receiver and lambda, never of wall-clock time.
func (s *SuffStats) Scale(lambda float64) {
	s.N *= lambda
	for c := range s.W {
		s.W[c] *= lambda
		for j := range s.X[c] {
			s.X[c][j] *= lambda
			s.XX[c][j] *= lambda
		}
	}
}

// Add accumulates one batch of rows with their responsibilities, in row
// order — the accumulation order is part of the determinism contract, so
// the same (rows, post) pair always produces bit-identical statistics.
func (s *SuffStats) Add(points [][]float64, post [][]float64) {
	for i, x := range points {
		r := post[i]
		s.N++
		for c := range s.W {
			rc := r[c]
			s.W[c] += rc
			xc, xxc := s.X[c], s.XX[c]
			for j, v := range x {
				xc[j] += rc * v
				xxc[j] += rc * v * v
			}
		}
	}
}

// ModelInto re-estimates m from the accumulated statistics: the streaming
// M-step. Components whose mass has decayed away (below 1e-12) keep their
// previous parameters at weight 1e-12, mirroring the batch MStep's
// dead-component rule; variances are floored at minVar. Mixture weights are
// renormalized at the end exactly as MStep does.
func (s *SuffStats) ModelInto(m *Model, minVar float64) {
	for c := range s.W {
		nc := s.W[c]
		if nc < 1e-12 {
			m.Pi[c] = 1e-12
			continue
		}
		d := len(s.X[c])
		mean := make([]float64, d)
		vars := make([]float64, d)
		for j := 0; j < d; j++ {
			mean[j] = s.X[c][j] / nc
			v := s.XX[c][j]/nc - mean[j]*mean[j]
			if v < minVar {
				v = minVar
			}
			vars[j] = v
		}
		m.Pi[c] = nc / s.N
		m.Means[c] = mean
		m.Vars[c] = vars
	}
	var sum float64
	for _, w := range m.Pi {
		sum += w
	}
	for c := range m.Pi {
		m.Pi[c] /= sum
	}
}
