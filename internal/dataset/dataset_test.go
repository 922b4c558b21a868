package dataset

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"multiclust/internal/core"
	"multiclust/internal/linalg"
)

func TestDatasetBasics(t *testing.T) {
	ds := New([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if ds.N() != 3 || ds.Dim() != 2 {
		t.Fatalf("shape %dx%d", ds.N(), ds.Dim())
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Dataset{Points: [][]float64{{1}, {1, 2}}}
	if err := bad.Validate(); err == nil {
		t.Error("ragged dataset should fail validation")
	}
	empty := &Dataset{}
	if err := empty.Validate(); err == nil {
		t.Error("empty dataset should fail validation")
	}
	if empty.Dim() != 0 {
		t.Error("empty Dim should be 0")
	}
}

func TestMatrixRoundTrip(t *testing.T) {
	ds := New([][]float64{{1, 2}, {3, 4}})
	m := ds.Matrix()
	for i := range ds.Points {
		for j := range ds.Points[i] {
			if m.At(i, j) != ds.Points[i][j] {
				t.Fatal("matrix round trip mismatch")
			}
		}
	}
	// Matrix is a copy.
	m.Set(0, 0, 99)
	if ds.Points[0][0] == 99 {
		t.Error("Matrix aliases dataset")
	}
}

func TestSubspaceProjection(t *testing.T) {
	ds := New([][]float64{{1, 2, 3}, {4, 5, 6}})
	sub := ds.Subspace([]int{2, 0})
	if sub.Dim() != 2 {
		t.Fatalf("sub dim %d", sub.Dim())
	}
	if sub.Points[0][0] != 3 || sub.Points[0][1] != 1 {
		t.Errorf("sub row = %v", sub.Points[0])
	}
	if sub.Names[0] != "dim2" {
		t.Errorf("sub name = %v", sub.Names[0])
	}
}

func TestStandardize(t *testing.T) {
	ds := New([][]float64{{0, 5}, {2, 5}, {4, 5}})
	std := ds.Standardize()
	// Column 0: mean 2, sample sd 2 -> values -1, 0, 1.
	if math.Abs(std.Points[0][0]+1) > 1e-12 || std.Points[1][0] != 0 {
		t.Errorf("standardized col0 = %v %v %v", std.Points[0][0], std.Points[1][0], std.Points[2][0])
	}
	// Constant column centered to zero.
	if std.Points[0][1] != 0 {
		t.Errorf("constant column should center to 0, got %v", std.Points[0][1])
	}
	// Original untouched.
	if ds.Points[0][0] != 0 {
		t.Error("Standardize mutated the receiver")
	}
}

func TestNormalizeAndBounds(t *testing.T) {
	ds := New([][]float64{{-1, 7}, {1, 7}})
	mins, maxs := ds.Bounds()
	if mins[0] != -1 || maxs[0] != 1 || mins[1] != 7 || maxs[1] != 7 {
		t.Errorf("bounds = %v %v", mins, maxs)
	}
	norm := ds.Normalize()
	if norm.Points[0][0] != 0 || norm.Points[1][0] != 1 {
		t.Errorf("normalized col0 = %v %v", norm.Points[0][0], norm.Points[1][0])
	}
	if norm.Points[0][1] != 0 {
		t.Errorf("constant column should normalize to 0")
	}
}

func TestTransform(t *testing.T) {
	ds := New([][]float64{{1, 0}, {0, 1}})
	m, _ := linalg.FromRows([][]float64{{0, 1}, {1, 0}}) // swap coordinates
	out := ds.Transform(m)
	if out.Points[0][0] != 0 || out.Points[0][1] != 1 {
		t.Errorf("transform = %v", out.Points[0])
	}
}

func TestConcat(t *testing.T) {
	a := New([][]float64{{1}, {2}})
	b := New([][]float64{{3, 4}, {5, 6}})
	c, err := Concat(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if c.Dim() != 3 || c.Points[1][2] != 6 {
		t.Errorf("concat = %v", c.Points)
	}
	if _, err := Concat(a, New([][]float64{{1}})); err == nil {
		t.Error("row-count mismatch should fail")
	}
	if _, err := Concat(); err == nil {
		t.Error("empty concat should fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := New([][]float64{{1.5, -2}, {3, 4.25}})
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 2 || back.Dim() != 2 {
		t.Fatalf("round trip shape %dx%d", back.N(), back.Dim())
	}
	for i := range ds.Points {
		for j := range ds.Points[i] {
			if back.Points[i][j] != ds.Points[i][j] {
				t.Fatalf("round trip value mismatch at %d,%d", i, j)
			}
		}
	}
	if back.Names[0] != "dim0" {
		t.Errorf("names = %v", back.Names)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), false); err == nil {
		t.Error("empty csv should fail")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n"), true); err == nil {
		t.Error("header-only csv should fail")
	}
	if _, err := ReadCSV(strings.NewReader("1,notanumber\n"), false); err == nil {
		t.Error("non-numeric csv should fail")
	}
	if _, err := ReadCSV(strings.NewReader("a\n1,2\n"), true); err == nil {
		t.Error("header/data width mismatch should fail")
	}
}

func TestReadCSVRejectsNonFinite(t *testing.T) {
	cases := []struct {
		in     string
		posMsg string
	}{
		{"NaN,1\n2,3\n", "row 1 col 1"},
		{"1,2\n3,Inf\n", "row 2 col 2"},
		{"1,2\n-Inf,4\n", "row 2 col 1"},
		{"1,2\n3,nan\n", "row 2 col 2"},
		{"1,+Inf\n", "row 1 col 2"},
	}
	for _, c := range cases {
		_, err := ReadCSV(strings.NewReader(c.in), false)
		if err == nil {
			t.Errorf("ReadCSV(%q) accepted non-finite input", c.in)
			continue
		}
		if !errors.Is(err, core.ErrInvalidInput) {
			t.Errorf("ReadCSV(%q) error %v, want wrap of core.ErrInvalidInput", c.in, err)
		}
		if !strings.Contains(err.Error(), c.posMsg) {
			t.Errorf("ReadCSV(%q) error %q missing position %q", c.in, err, c.posMsg)
		}
	}
}

func TestReadCSVRejectsRaggedRows(t *testing.T) {
	_, err := ReadCSV(strings.NewReader("1,2\n3\n4,5\n"), false)
	if err == nil {
		t.Fatal("ragged csv accepted")
	}
	if !errors.Is(err, core.ErrShape) {
		t.Errorf("error %v, want wrap of core.ErrShape", err)
	}
	if !strings.Contains(err.Error(), "row 2 has 1 fields, row 1 has 2") {
		t.Errorf("error %q missing positional detail", err)
	}

	// With a header, data-row numbering still starts at 1.
	_, err = ReadCSV(strings.NewReader("a,b\n1,2\n3,4,5\n"), true)
	if err == nil {
		t.Fatal("ragged csv with header accepted")
	}
	if !strings.Contains(err.Error(), "row 2 has 3 fields, row 1 has 2") {
		t.Errorf("error %q missing positional detail", err)
	}
}
