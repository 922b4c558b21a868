package jobs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"multiclust/internal/dataset"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// wireCases are the specs whose Outcome JSON is pinned byte for byte: every
// built-in batch and streaming algorithm on one small fixed dataset (the
// four-blob toy, 8 rows per blob, stored blob by blob). Streams take the
// rows as two chunks of 16 — two blobs each — so the last chunk touches
// fewer k-means centers than the model holds.
var wireCases = []Spec{
	{Algo: "dbscan", Eps: 0.15, MinPts: 3},
	{Algo: "em", K: 4, Seed: 3},
	{Algo: "kmeans", K: 4, Seed: 3, Restarts: 2},
	{Algo: "meta", K: 2, Seed: 3, NumSolutions: 8, MetaClusters: 3},
	{Algo: "spectral", K: 4, Seed: 3},
	{Algo: "coem", Stream: true, K: 2, Seed: 3},
	{Algo: "kmeans", Stream: true, K: 4, Seed: 3},
	{Algo: "meta", Stream: true, K: 2, Seed: 3, NumSolutions: 4, MetaClusters: 2},
}

// TestOutcomeWireGolden pins the full json.Marshal of each built-in
// algorithm's Outcome as the service returns it (testdata/outcomes.golden,
// one "<mode> <algo> <json>" line per case). Regenerate with
// `go test ./internal/jobs -run TestOutcomeWireGolden -update` only for an
// intended wire change.
func TestOutcomeWireGolden(t *testing.T) {
	ds, _, _ := dataset.FourBlobToy(1, 8)
	e := newTestEngine(t, Config{Workers: 1})
	var got bytes.Buffer
	for _, spec := range wireCases {
		mode := "batch"
		var j *Job
		var err error
		if spec.Stream {
			mode = "stream"
			spec.Points = ds.Points[:16]
			if j, _, err = e.Submit(spec); err == nil {
				if _, err = e.Append(j.ID, ds.Points[16:], false); err == nil {
					_, err = e.Append(j.ID, nil, true)
				}
			}
		} else {
			spec.Points = ds.Points
			j, _, err = e.Submit(spec)
		}
		if err != nil {
			t.Fatalf("%s %s: %v", mode, spec.Algo, err)
		}
		waitTerminal(t, j)
		if j.State() != StateDone {
			t.Fatalf("%s %s: state %s (err %v), want done", mode, spec.Algo, j.State(), j.Err())
		}
		b, err := json.Marshal(j.Result())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %s %s\n", mode, spec.Algo, b)
	}
	compareGolden(t, filepath.Join("testdata", "outcomes.golden"), got.Bytes())
}

// compareGolden diffs got against the golden file, rewriting it under
// -update.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
