// Package dataset provides the data container, CSV I/O, and the
// deterministic synthetic generators standing in for the real datasets the
// tutorial motivates with (gene expression, customer profiles, sensor
// networks, text). Every generator embeds a known ground truth — often
// several ground truths at once, one per hidden view — so the experiment
// harness can score what the slides only illustrate.
package dataset

import (
	"errors"
	"fmt"
	"math"

	"multiclust/internal/linalg"
)

// Dataset is a table of n points in d dimensions with optional column names.
type Dataset struct {
	Points [][]float64
	Names  []string
}

// New wraps points (no copy) with generated column names.
func New(points [][]float64) *Dataset {
	d := &Dataset{Points: points}
	if len(points) > 0 {
		d.Names = make([]string, len(points[0]))
		for i := range d.Names {
			d.Names[i] = fmt.Sprintf("dim%d", i)
		}
	}
	return d
}

// N returns the number of points.
func (d *Dataset) N() int { return len(d.Points) }

// Dim returns the dimensionality (0 for an empty dataset).
func (d *Dataset) Dim() int {
	if len(d.Points) == 0 {
		return 0
	}
	return len(d.Points[0])
}

// Validate checks that all rows have equal length and returns an error
// otherwise.
func (d *Dataset) Validate() error {
	if len(d.Points) == 0 {
		return errors.New("dataset: empty")
	}
	w := len(d.Points[0])
	for i, p := range d.Points {
		if len(p) != w {
			return fmt.Errorf("dataset: row %d has %d dims, row 0 has %d", i, len(p), w)
		}
	}
	return nil
}

// Matrix returns the data as an n×d matrix (copies).
func (d *Dataset) Matrix() *linalg.Matrix {
	m := linalg.NewMatrix(d.N(), d.Dim())
	for i, p := range d.Points {
		copy(m.Row(i), p)
	}
	return m
}

// Subspace returns a copy restricted to the given dimensions.
func (d *Dataset) Subspace(dims []int) *Dataset {
	pts := make([][]float64, d.N())
	for i, p := range d.Points {
		row := make([]float64, len(dims))
		for j, dim := range dims {
			row[j] = p[dim]
		}
		pts[i] = row
	}
	out := New(pts)
	for j, dim := range dims {
		if dim < len(d.Names) {
			out.Names[j] = d.Names[dim]
		}
	}
	return out
}

// Clone deep-copies the dataset.
func (d *Dataset) Clone() *Dataset {
	pts := make([][]float64, len(d.Points))
	for i, p := range d.Points {
		pts[i] = append([]float64(nil), p...)
	}
	out := New(pts)
	copy(out.Names, d.Names)
	return out
}

// Transform returns a copy with every point mapped through the linear map m
// (d_out×d_in).
func (d *Dataset) Transform(m *linalg.Matrix) *Dataset {
	pts := make([][]float64, d.N())
	for i, p := range d.Points {
		pts[i] = m.MulVec(p)
	}
	return New(pts)
}

// Standardize returns a copy with each column shifted to zero mean and
// scaled to unit variance (columns with zero variance are left centered).
func (d *Dataset) Standardize() *Dataset {
	out := d.Clone()
	n, dim := d.N(), d.Dim()
	if n == 0 {
		return out
	}
	for j := 0; j < dim; j++ {
		var mean float64
		for i := 0; i < n; i++ {
			mean += d.Points[i][j]
		}
		mean /= float64(n)
		var variance float64
		for i := 0; i < n; i++ {
			diff := d.Points[i][j] - mean
			variance += diff * diff
		}
		if n > 1 {
			variance /= float64(n - 1)
		}
		sd := math.Sqrt(variance)
		for i := 0; i < n; i++ {
			out.Points[i][j] -= mean
			if sd > 0 {
				out.Points[i][j] /= sd
			}
		}
	}
	return out
}

// Bounds returns per-dimension [min, max] of the data.
func (d *Dataset) Bounds() (mins, maxs []float64) {
	dim := d.Dim()
	mins = make([]float64, dim)
	maxs = make([]float64, dim)
	for j := 0; j < dim; j++ {
		mins[j] = math.Inf(1)
		maxs[j] = math.Inf(-1)
	}
	for _, p := range d.Points {
		for j, v := range p {
			if v < mins[j] {
				mins[j] = v
			}
			if v > maxs[j] {
				maxs[j] = v
			}
		}
	}
	return mins, maxs
}

// Normalize returns a copy rescaled so every dimension spans [0,1]
// (constant dimensions map to 0). Grid-based subspace clustering assumes
// this normalization.
func (d *Dataset) Normalize() *Dataset {
	out := d.Clone()
	mins, maxs := d.Bounds()
	for _, p := range out.Points {
		for j := range p {
			span := maxs[j] - mins[j]
			if span > 0 {
				p[j] = (p[j] - mins[j]) / span
			} else {
				p[j] = 0
			}
		}
	}
	return out
}

// Concat horizontally concatenates datasets with equal point counts — the
// "merging multiple sources into one universal view" operation of slide 11.
func Concat(parts ...*Dataset) (*Dataset, error) {
	if len(parts) == 0 {
		return nil, errors.New("dataset: Concat of nothing")
	}
	n := parts[0].N()
	var width int
	for _, p := range parts {
		if p.N() != n {
			return nil, fmt.Errorf("dataset: Concat row mismatch %d vs %d", p.N(), n)
		}
		width += p.Dim()
	}
	pts := make([][]float64, n)
	for i := range pts {
		row := make([]float64, 0, width)
		for _, p := range parts {
			row = append(row, p.Points[i]...)
		}
		pts[i] = row
	}
	out := New(pts)
	idx := 0
	for pi, p := range parts {
		for j := 0; j < p.Dim(); j++ {
			name := fmt.Sprintf("v%d_%s", pi, p.Names[j])
			out.Names[idx] = name
			idx++
		}
	}
	return out, nil
}
