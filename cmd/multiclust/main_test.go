package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multiclust/internal/registry"
)

func TestReadLabels(t *testing.T) {
	labels, err := readLabels(strings.NewReader("0\n1\n\n 2 \n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 3 || labels[2] != 2 {
		t.Errorf("labels = %v", labels)
	}
	if _, err := readLabels(strings.NewReader("x\n")); err == nil {
		t.Error("non-numeric label should fail")
	}
}

func TestLabelString(t *testing.T) {
	s := labelString([]int{1, 2, 3, 4}, 2)
	if !strings.Contains(s, "...") || !strings.Contains(s, "4 total") {
		t.Errorf("labelString = %q", s)
	}
	if labelString([]int{7}, 5) != "7" {
		t.Errorf("short labelString = %q", labelString([]int{7}, 5))
	}
}

// silenceStdout discards stdout for the rest of the test.
func silenceStdout(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})
}

// toyParams are the CLI flag defaults on the built-in toy dataset.
func toyParams() registry.Params {
	return registry.Params{K: 2, Seed: 1, Eps: 0.1, MinPts: 4, Xi: 10, Tau: 0.15, Restarts: 5}
}

// TestRunAlgorithms drives the CLI entry point across every batch
// algorithm of the registry, plus the taxonomy table, on the built-in toy
// dataset — the command-level integration test.
func TestRunAlgorithms(t *testing.T) {
	silenceStdout(t)
	algos := []string{"taxonomy"}
	for _, a := range registry.All() {
		if a.Run != nil {
			algos = append(algos, a.Name)
		}
	}
	if len(algos) != 31 {
		t.Errorf("-algo accepts %d names, want taxonomy plus 30 algorithms", len(algos))
	}
	for _, algo := range algos {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			if err := run(algo, "", true, "", toyParams()); err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
		})
	}
	for _, bad := range []string{"nope", "coem"} {
		if err := run(bad, "", true, "", toyParams()); err == nil {
			t.Errorf("%s: batch run should fail", bad)
		}
	}
}

// TestRunStream drives the -stream replay mode across every incremental
// learner of the registry on the toy dataset, plus the flag/algorithm
// error paths.
func TestRunStream(t *testing.T) {
	silenceStdout(t)
	p := registry.Params{K: 2, Seed: 1}
	for _, a := range registry.All() {
		if a.Stream == nil {
			continue
		}
		algo := a.Name
		t.Run(algo, func(t *testing.T) {
			if err := runStream(algo, "", true, p, 30); err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
		})
	}
	if err := runStream("dbscan", "", true, p, 30); err == nil {
		t.Error("non-streaming algorithm should fail")
	}
	if err := runStream("kmeans", "", true, p, 0); err == nil {
		t.Error("non-positive chunk size should fail")
	}
	if err := runStream("kmeans", "missing.csv", true, p, 30); err == nil {
		t.Error("missing input should fail")
	}
}

func TestRunWithCSVAndGiven(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.csv")
	if err := os.WriteFile(dataPath, []byte("a,b\n0,0\n0.1,0\n5,5\n5.1,5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	givenPath := filepath.Join(dir, "given.txt")
	if err := os.WriteFile(givenPath, []byte("0\n0\n1\n1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	silenceStdout(t)
	p := registry.Params{K: 2, Seed: 1, Eps: 0.1, MinPts: 2, Xi: 10, Tau: 0.1, Restarts: 5}
	if err := run("coala", dataPath, true, givenPath, p); err != nil {
		t.Fatal(err)
	}
	// Mismatched given length fails.
	badGiven := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(badGiven, []byte("0\n1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("coala", dataPath, true, badGiven, p); err == nil {
		t.Error("given/data size mismatch should fail")
	}
	// Missing file fails.
	if err := run("kmeans", filepath.Join(dir, "missing.csv"), true, "", p); err == nil {
		t.Error("missing input should fail")
	}
}

// TestRunDerivesGivenOnlyWhenConsumed: on a 3-row CSV, -k 5 exceeds n, so
// the k-means that derives a given clustering would fail — DBSCAN reads
// neither -k nor a given clustering and must run regardless, while a
// given-knowledge algorithm still surfaces the derivation's error.
func TestRunDerivesGivenOnlyWhenConsumed(t *testing.T) {
	dataPath := filepath.Join(t.TempDir(), "tiny.csv")
	if err := os.WriteFile(dataPath, []byte("a,b\n0,0\n0.1,0\n5,5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	silenceStdout(t)
	p := registry.Params{K: 5, Seed: 1, Eps: 0.5, MinPts: 1, Restarts: 5}
	if err := run("dbscan", dataPath, true, "", p); err != nil {
		t.Fatalf("dbscan -k 5 on 3 rows: %v", err)
	}
	if err := run("coala", dataPath, true, "", p); err == nil {
		t.Error("coala -k 5 on 3 rows should fail deriving the given clustering")
	}
}
