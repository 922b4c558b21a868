package jobs

import (
	"context"
	"fmt"
	"sort"

	"multiclust/internal/core"
	"multiclust/internal/registry"
)

// Runner executes a batch job: the spec's dataset under the spec's
// algorithm and spec.Seed. The engine calls it once per job; reseeding a
// degenerate fit is the algorithm's own business (the facade's EM fits on
// spec.Seed, +1, +2; spectral clustering fails at once, since no seed
// changes its embedding). The context carries the deadline,
// the drain signal and the job's recorder (obs.From), which the facade's
// ...Context calls report into; a runner that is interrupted should return
// its best-so-far Outcome alongside an error wrapping core.ErrInterrupted —
// that pair is what the engine serves as a partial result. Runners are
// invoked under robust.RecoverTo, so a panic fails the job without taking
// the worker down.
type Runner func(ctx context.Context, spec Spec) (*Outcome, error)

// StreamHandle is one live incremental learner behind a streaming job
// (Spec.Stream). The engine serializes calls — at most one PushChunk or
// Snapshot runs at a time per job — so implementations need no internal
// locking. PushChunk folds one chunk in, honoring ctx at chunk
// boundaries with errors wrapping core.ErrInterrupted; Snapshot
// materializes the current state as the flat wire Outcome. Both run
// under robust.RecoverTo, so a panicking handle fails the job without
// taking the worker down.
type StreamHandle interface {
	PushChunk(ctx context.Context, rows [][]float64) error
	Snapshot(ctx context.Context) (*Outcome, error)
}

// StreamFactory builds the handle for one admitted streaming job from
// its spec. Construction errors are admission errors: the engine wraps
// them in ErrBadSpec and refuses the job (HTTP 400).
type StreamFactory func(spec Spec) (StreamHandle, error)

// defaultRunners and defaultStreams serve the registry: every algorithm
// the service admits runs through batchRunner, and every one with an
// incremental learner through streamFactory. The streaming names are the
// batch names where both exist, so flipping "stream": true on a kmeans or
// meta spec selects the incremental version of the same algorithm.
var (
	defaultRunners = map[string]Runner{}
	defaultStreams = map[string]StreamFactory{}
)

func init() {
	for _, a := range registry.All() {
		if a.Served {
			defaultRunners[a.Name] = batchRunner(a)
		}
		if a.Stream != nil {
			defaultStreams[a.Name] = streamFactory(a)
		}
	}
}

// Algorithms lists the service's built-in algorithm names, sorted.
func Algorithms() []string { return sortedNames(defaultRunners) }

// StreamAlgorithms lists the service's built-in streaming algorithm
// names, sorted.
func StreamAlgorithms() []string { return sortedNames(defaultStreams) }

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// params maps a spec onto the registry's knobs. K, Seed, Restarts and
// MaxIter mean the same for a streaming learner as for its batch
// counterpart (they configure the first-chunk batch solve);
// NumSolutions is the streaming ensemble's base solutions per chunk.
func params(spec Spec) registry.Params {
	return registry.Params{
		Points: spec.Points, K: spec.K, Seed: spec.Seed, Eps: spec.Eps, MinPts: spec.MinPts,
		Restarts: spec.Restarts, MaxIter: spec.MaxIter,
		NumSolutions: spec.NumSolutions, MetaClusters: spec.MetaClusters, Window: spec.Window,
	}
}

// outcome flattens a registry result with at least one partition into
// the wire shape: the first partition is the flat label surface, so
// single-solution clients need no special casing, and a solution set
// additionally lists every partition.
func outcome(r *registry.Result) *Outcome {
	first := r.Partitions[0]
	out := &Outcome{Labels: first.Labels, K: r.Clusters(), Noise: first.NoiseCount(), Stats: r.Stats}
	if r.Solutions {
		out.Solutions = make([][]int, len(r.Partitions))
		for i, c := range r.Partitions {
			out.Solutions[i] = c.Labels
		}
	}
	return out
}

// batchRunner runs a registry algorithm, inheriting the facade's whole
// robustness envelope: validation gates, panic recovery, degenerate-fit
// reseeding, and best-so-far on interrupt. A run that yields no
// clustering fails outright.
func batchRunner(a registry.Algorithm) Runner {
	return func(ctx context.Context, spec Spec) (*Outcome, error) {
		res, err := a.Run(ctx, params(spec))
		if res != nil && len(res.Partitions) > 0 {
			return outcome(res), err
		}
		if err == nil {
			err = fmt.Errorf("jobs: %s produced no clustering", a.Name)
		}
		return nil, err
	}
}

// streamFactory builds a registry algorithm's incremental learner.
func streamFactory(a registry.Algorithm) StreamFactory {
	return func(spec Spec) (StreamHandle, error) {
		l, err := a.Stream(params(spec))
		if err != nil {
			return nil, err
		}
		return learnerHandle{a.Name, l}, nil
	}
}

// learnerHandle serves a registry learner as a StreamHandle. Labels on
// the wire cover the most recent chunk only: rows are not retained.
type learnerHandle struct {
	name string
	l    registry.Learner
}

func (h learnerHandle) PushChunk(ctx context.Context, rows [][]float64) error {
	return h.l.Push(ctx, rows)
}

// Snapshot flattens the learner state like a batch result. A snapshot
// with no clustering (an ensemble window that grouped into nothing) is
// degenerate.
func (h learnerHandle) Snapshot(ctx context.Context) (*Outcome, error) {
	res, err := h.l.Snapshot(ctx)
	if res == nil {
		return nil, err
	}
	if len(res.Partitions) == 0 {
		return nil, fmt.Errorf("jobs: streaming %s produced no clustering: %w", h.name, core.ErrDegenerate)
	}
	return outcome(res), err
}
