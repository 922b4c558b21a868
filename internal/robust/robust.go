// Package robust is the fault-tolerant execution layer of multiclust: a
// validation gate that keeps NaN/Inf-contaminated or structurally broken
// data out of every algorithm, deterministic repair policies for data that
// can be salvaged, budgeted retry-with-reseed for degenerate outcomes, and
// panic-to-error conversion for the facade boundary.
//
// The facade wires ValidateDataset / ValidateLabels in front of every
// exported algorithm and defers RecoverTo around every call, so no exported
// multiclust function can panic and no contaminated dataset silently poisons
// a result. The typed sentinels (ErrInvalidInput, ErrShape, ErrInterrupted,
// ErrDegenerate, ErrPanic) are defined in internal/core — the bottom of the
// import graph; match them with errors.Is.
package robust

import (
	"fmt"
	"math"

	"multiclust/internal/core"
)

// ValidateDataset checks that points form a rectangular table of finite
// values: at least one row, at least one dimension, every row the same
// width, no NaN or Inf anywhere. Violations return a typed error carrying
// the first offending position (errors.Is: ErrEmptyDataset, ErrShape,
// ErrInvalidInput).
func ValidateDataset(points [][]float64) error {
	if len(points) == 0 {
		return core.ErrEmptyDataset
	}
	d := len(points[0])
	if d == 0 {
		return fmt.Errorf("robust: row 0 has zero dimensions: %w", core.ErrInvalidInput)
	}
	for i, p := range points {
		if len(p) != d {
			return fmt.Errorf("robust: row %d has %d dims, row 0 has %d: %w", i, len(p), d, core.ErrShape)
		}
		for j, v := range p {
			if math.IsNaN(v) {
				return fmt.Errorf("robust: NaN at row %d col %d: %w", i, j, core.ErrInvalidInput)
			}
			if math.IsInf(v, 0) {
				return fmt.Errorf("robust: Inf at row %d col %d: %w", i, j, core.ErrInvalidInput)
			}
		}
	}
	return nil
}

// ValidateViews applies ValidateDataset to every view and additionally
// requires all views to describe the same number of objects.
func ValidateViews(views ...[][]float64) error {
	if len(views) == 0 {
		return core.ErrEmptyDataset
	}
	for v, view := range views {
		if err := ValidateDataset(view); err != nil {
			return fmt.Errorf("robust: view %d: %w", v, err)
		}
		if len(view) != len(views[0]) {
			return fmt.Errorf("robust: view %d has %d objects, view 0 has %d: %w",
				v, len(view), len(views[0]), core.ErrShape)
		}
	}
	return nil
}

// ValidateLabels checks that a label vector covers exactly n objects.
// Negative labels are legal (core.Noise); nil is rejected.
func ValidateLabels(labels []int, n int) error {
	if labels == nil {
		return fmt.Errorf("robust: nil label vector: %w", core.ErrInvalidInput)
	}
	if len(labels) != n {
		return fmt.Errorf("robust: labeling covers %d objects, dataset has %d: %w",
			len(labels), n, core.ErrShape)
	}
	return nil
}

// ValidateClustering checks a clustering pointer against the object count.
func ValidateClustering(c *core.Clustering, n int) error {
	if c == nil {
		return fmt.Errorf("robust: nil clustering: %w", core.ErrInvalidInput)
	}
	return ValidateLabels(c.Labels, n)
}

// ValidateClusterings checks every clustering in a set against n.
func ValidateClusterings(cs []*core.Clustering, n int) error {
	for i, c := range cs {
		if err := ValidateClustering(c, n); err != nil {
			return fmt.Errorf("robust: clustering %d: %w", i, err)
		}
	}
	return nil
}

// Policy selects how Sanitize treats rows that fail validation.
type Policy int

const (
	// Reject performs no repair: Sanitize returns the validation error.
	Reject Policy = iota
	// DropRows removes every ragged row and every row containing a NaN or
	// Inf coordinate.
	DropRows
	// ImputeMean removes ragged rows, then replaces each NaN/Inf cell with
	// the mean of the finite values in its column (0 when a column has no
	// finite value at all).
	ImputeMean
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Reject:
		return "reject"
	case DropRows:
		return "drop-rows"
	case ImputeMean:
		return "impute-mean"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Report records what a Sanitize pass changed. Kept maps each output row to
// its original index so labels and ground truths can be realigned.
type Report struct {
	Kept         []int // original index of every surviving row, ascending
	DroppedRows  []int // original indices removed, ascending
	ImputedCells int   // NaN/Inf cells replaced under ImputeMean
}

// Clean reports whether the pass changed nothing.
func (r *Report) Clean() bool {
	return len(r.DroppedRows) == 0 && r.ImputedCells == 0
}

// Sanitize returns a deep, repaired copy of points under the given policy,
// plus a report of what changed. It is fully deterministic: repairs depend
// only on the input, never on iteration or scheduling order. Under Reject
// the copy is nil whenever validation fails. An empty dataset — or one
// where every row is dropped — returns ErrEmptyDataset.
func Sanitize(points [][]float64, policy Policy) ([][]float64, *Report, error) {
	if policy == Reject {
		if err := ValidateDataset(points); err != nil {
			return nil, nil, err
		}
		out := make([][]float64, len(points))
		for i, p := range points {
			out[i] = append([]float64(nil), p...)
		}
		return out, &Report{Kept: iota0(len(points))}, nil
	}
	if len(points) == 0 {
		return nil, nil, core.ErrEmptyDataset
	}
	d := len(points[0])
	rep := &Report{}
	var kept [][]float64
	for i, p := range points {
		bad := len(p) != d || d == 0
		if !bad && policy == DropRows {
			for _, v := range p {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					bad = true
					break
				}
			}
		}
		if bad {
			rep.DroppedRows = append(rep.DroppedRows, i)
			continue
		}
		rep.Kept = append(rep.Kept, i)
		kept = append(kept, append([]float64(nil), p...))
	}
	if len(kept) == 0 {
		return nil, nil, fmt.Errorf("robust: no rows survive %v: %w", policy, core.ErrEmptyDataset)
	}
	if policy == ImputeMean {
		for j := 0; j < d; j++ {
			var sum float64
			var cnt int
			for _, p := range kept {
				if v := p[j]; !math.IsNaN(v) && !math.IsInf(v, 0) {
					sum += v
					cnt++
				}
			}
			mean := 0.0
			if cnt > 0 {
				mean = sum / float64(cnt)
			}
			for _, p := range kept {
				if v := p[j]; math.IsNaN(v) || math.IsInf(v, 0) {
					p[j] = mean
					rep.ImputedCells++
				}
			}
		}
	}
	return kept, rep, nil
}

func iota0(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// RecoverTo is deferred at the facade boundary: it converts a panic into an
// error wrapping ErrPanic, so no exported multiclust call can crash the
// process. Worker-goroutine panics reach it because internal/parallel
// re-raises them on the calling goroutine (as *parallel.PanicError, whose
// message carries the task index).
func RecoverTo(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("robust: recovered panic: %v: %w", r, core.ErrPanic)
	}
}
