package subspace

import (
	"context"
	"reflect"
	"testing"

	"multiclust/internal/dataset"
)

// Same-seed replay: two runs with an identical config must produce
// byte-identical results — the invariant the internal/lint suite
// (maporder/detsource/sharedrng) enforces statically. reflect.DeepEqual
// compares every label, member list, dimension set and float exactly: any
// map-order or global-RNG leak shows up as a diff here.

func projectedData(t *testing.T) ([][]float64, []int) {
	t.Helper()
	specs := []dataset.SubspaceSpec{
		{Dims: []int{0, 1, 2}, Size: 60, Width: 0.08},
		{Dims: []int{3, 4}, Size: 50, Width: 0.08},
	}
	ds, _, err := dataset.SubspaceData(5, 200, 6, specs)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Points, nil
}

func TestProclusSameSeedReplay(t *testing.T) {
	pts, _ := projectedData(t)
	cfg := ProclusConfig{K: 3, L: 2, Seed: 7}
	a, err := Proclus(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Proclus(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("PROCLUS: identical config produced different results across runs")
	}
}

func TestOrclusSameSeedReplay(t *testing.T) {
	pts, _ := orientedClusters(3, 50)
	cfg := OrclusConfig{K: 2, L: 3, Seed: 9}
	a, err := Orclus(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Orclus(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("ORCLUS: identical config produced different results across runs")
	}
}

func TestDOCSameSeedReplay(t *testing.T) {
	pts, _ := projectedData(t)
	cfg := DOCConfig{W: 0.06, Alpha: 0.1, Seed: 11, MaxClusters: 3, OuterTrials: 5, InnerTrials: 16}
	a, err := DOCContext(context.Background(), pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DOCContext(context.Background(), pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("DOC: identical config produced different results across runs")
	}
}

func TestMineClusSameSeedReplay(t *testing.T) {
	pts, _ := projectedData(t)
	cfg := MineClusConfig{W: 0.06, Alpha: 0.1, Beta: 0.25, MaxClusters: 3, Seed: 13}
	a, err := MineClusContext(context.Background(), pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MineClusContext(context.Background(), pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("MineClus: identical config produced different results across runs")
	}
}
