package robust

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"multiclust/internal/core"
)

func TestValidateDatasetClean(t *testing.T) {
	if err := ValidateDataset([][]float64{{1, 2}, {3, 4}}); err != nil {
		t.Fatalf("clean dataset rejected: %v", err)
	}
}

func TestValidateDatasetEmpty(t *testing.T) {
	if err := ValidateDataset(nil); !errors.Is(err, core.ErrEmptyDataset) {
		t.Fatalf("want ErrEmptyDataset, got %v", err)
	}
	if err := ValidateDataset([][]float64{}); !errors.Is(err, core.ErrEmptyDataset) {
		t.Fatalf("want ErrEmptyDataset, got %v", err)
	}
}

func TestValidateDatasetZeroDim(t *testing.T) {
	if err := ValidateDataset([][]float64{{}}); !errors.Is(err, core.ErrInvalidInput) {
		t.Fatalf("want ErrInvalidInput, got %v", err)
	}
}

func TestValidateDatasetRagged(t *testing.T) {
	err := ValidateDataset([][]float64{{1, 2}, {3}})
	if !errors.Is(err, core.ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	if !strings.Contains(err.Error(), "row 1") {
		t.Fatalf("error should carry the offending row: %v", err)
	}
}

func TestValidateDatasetNonFinite(t *testing.T) {
	for name, v := range map[string]float64{
		"nan":  math.NaN(),
		"+inf": math.Inf(1),
		"-inf": math.Inf(-1),
	} {
		err := ValidateDataset([][]float64{{0, 1}, {2, v}})
		if !errors.Is(err, core.ErrInvalidInput) {
			t.Fatalf("%s: want ErrInvalidInput, got %v", name, err)
		}
		if !strings.Contains(err.Error(), "row 1 col 1") {
			t.Fatalf("%s: error should carry the position: %v", name, err)
		}
	}
}

func TestValidateViews(t *testing.T) {
	a := [][]float64{{1}, {2}}
	b := [][]float64{{1, 1}, {2, 2}}
	if err := ValidateViews(a, b); err != nil {
		t.Fatalf("matched views rejected: %v", err)
	}
	if err := ValidateViews(a, b[:1]); !errors.Is(err, core.ErrShape) {
		t.Fatalf("want ErrShape for mismatched object counts, got %v", err)
	}
	if err := ValidateViews(); !errors.Is(err, core.ErrEmptyDataset) {
		t.Fatalf("want ErrEmptyDataset for no views, got %v", err)
	}
}

func TestValidateLabels(t *testing.T) {
	if err := ValidateLabels([]int{0, 1, core.Noise}, 3); err != nil {
		t.Fatalf("valid labels rejected: %v", err)
	}
	if err := ValidateLabels(nil, 3); !errors.Is(err, core.ErrInvalidInput) {
		t.Fatalf("want ErrInvalidInput for nil labels, got %v", err)
	}
	if err := ValidateLabels([]int{0, 1}, 3); !errors.Is(err, core.ErrShape) {
		t.Fatalf("want ErrShape for short labels, got %v", err)
	}
}

func TestValidateClusterings(t *testing.T) {
	good := core.NewClustering([]int{0, 1})
	if err := ValidateClusterings([]*core.Clustering{good, good}, 2); err != nil {
		t.Fatalf("valid clusterings rejected: %v", err)
	}
	if err := ValidateClustering(nil, 2); !errors.Is(err, core.ErrInvalidInput) {
		t.Fatalf("want ErrInvalidInput for nil clustering, got %v", err)
	}
	bad := core.NewClustering([]int{0})
	if err := ValidateClusterings([]*core.Clustering{good, bad}, 2); !errors.Is(err, core.ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestSanitizeRejectCopies(t *testing.T) {
	in := [][]float64{{1, 2}, {3, 4}}
	out, rep, err := Sanitize(in, Reject)
	if err != nil {
		t.Fatalf("Sanitize(Reject) on clean data: %v", err)
	}
	if !rep.Clean() || len(rep.Kept) != 2 {
		t.Fatalf("unexpected report %+v", rep)
	}
	out[0][0] = 99
	if in[0][0] != 1 {
		t.Fatal("Sanitize must deep-copy")
	}
}

func TestSanitizeRejectFails(t *testing.T) {
	_, _, err := Sanitize([][]float64{{math.NaN()}}, Reject)
	if !errors.Is(err, core.ErrInvalidInput) {
		t.Fatalf("want ErrInvalidInput, got %v", err)
	}
}

func TestSanitizeDropRows(t *testing.T) {
	in := [][]float64{{1, 2}, {math.NaN(), 3}, {4, math.Inf(1)}, {5, 6}, {7}}
	out, rep, err := Sanitize(in, DropRows)
	if err != nil {
		t.Fatalf("DropRows: %v", err)
	}
	if len(out) != 2 || out[0][0] != 1 || out[1][0] != 5 {
		t.Fatalf("unexpected surviving rows %v", out)
	}
	wantDropped := []int{1, 2, 4}
	if fmt.Sprint(rep.DroppedRows) != fmt.Sprint(wantDropped) {
		t.Fatalf("dropped %v, want %v", rep.DroppedRows, wantDropped)
	}
	if fmt.Sprint(rep.Kept) != fmt.Sprint([]int{0, 3}) {
		t.Fatalf("kept %v, want [0 3]", rep.Kept)
	}
	if err := ValidateDataset(out); err != nil {
		t.Fatalf("sanitized output should validate: %v", err)
	}
}

func TestSanitizeDropAllRows(t *testing.T) {
	_, _, err := Sanitize([][]float64{{math.NaN()}, {math.Inf(1)}}, DropRows)
	if !errors.Is(err, core.ErrEmptyDataset) {
		t.Fatalf("want ErrEmptyDataset when nothing survives, got %v", err)
	}
}

func TestSanitizeImputeMean(t *testing.T) {
	in := [][]float64{{1, 10}, {math.NaN(), 20}, {3, math.Inf(-1)}, {1, 2, 3}}
	out, rep, err := Sanitize(in, ImputeMean)
	if err != nil {
		t.Fatalf("ImputeMean: %v", err)
	}
	if len(out) != 3 {
		t.Fatalf("ragged row should be dropped, got %d rows", len(out))
	}
	if out[1][0] != 2 { // mean of finite column-0 values {1, 3}
		t.Fatalf("imputed col 0 = %v, want 2", out[1][0])
	}
	if out[2][1] != 15 { // mean of finite column-1 values {10, 20}
		t.Fatalf("imputed col 1 = %v, want 15", out[2][1])
	}
	if rep.ImputedCells != 2 || fmt.Sprint(rep.DroppedRows) != "[3]" {
		t.Fatalf("unexpected report %+v", rep)
	}
	if err := ValidateDataset(out); err != nil {
		t.Fatalf("imputed output should validate: %v", err)
	}
}

func TestSanitizeImputeAllNonFiniteColumn(t *testing.T) {
	out, _, err := Sanitize([][]float64{{math.NaN(), 1}, {math.Inf(1), 2}}, ImputeMean)
	if err != nil {
		t.Fatalf("ImputeMean: %v", err)
	}
	if out[0][0] != 0 || out[1][0] != 0 {
		t.Fatalf("column with no finite values should impute to 0, got %v", out)
	}
}

func TestSanitizeDeterministic(t *testing.T) {
	in := [][]float64{{1, math.NaN()}, {2, 4}, {math.Inf(1), 6}}
	a, _, _ := Sanitize(in, ImputeMean)
	b, _, _ := Sanitize(in, ImputeMean)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("Sanitize not deterministic: %v vs %v", a, b)
	}
}

func TestPolicyString(t *testing.T) {
	if Reject.String() != "reject" || DropRows.String() != "drop-rows" || ImputeMean.String() != "impute-mean" {
		t.Fatal("unexpected Policy names")
	}
}

func TestRecoverTo(t *testing.T) {
	f := func() (err error) {
		defer RecoverTo(&err)
		panic("boom")
	}
	err := f()
	if !errors.Is(err, core.ErrPanic) {
		t.Fatalf("want ErrPanic, got %v", err)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic value should be in the message: %v", err)
	}
}

func TestRecoverToNoPanic(t *testing.T) {
	f := func() (err error) {
		defer RecoverTo(&err)
		return nil
	}
	if err := f(); err != nil {
		t.Fatalf("no panic should leave err nil, got %v", err)
	}
}
