package taxonomy

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) < 20 {
		t.Fatalf("registry has %d entries, expected the full survey", len(reg))
	}
	seen := map[string]bool{}
	spaces := map[SearchSpace]bool{}
	for _, e := range reg {
		if e.Algorithm == "" || e.Reference == "" || e.Package == "" {
			t.Errorf("incomplete entry: %+v", e)
		}
		if seen[e.Algorithm] {
			t.Errorf("duplicate algorithm %q", e.Algorithm)
		}
		seen[e.Algorithm] = true
		spaces[e.Space] = true
	}
	// Every paradigm of the tutorial is populated.
	for _, s := range []SearchSpace{OriginalSpace, TransformedSpace, SubspaceProjections, MultipleSources} {
		if !spaces[s] {
			t.Errorf("no algorithms in search space %v", s)
		}
	}
}

func TestLookup(t *testing.T) {
	e, ok := Lookup("coala")
	if !ok {
		t.Fatal("COALA not found (lookup should be case-insensitive)")
	}
	if e.Space != OriginalSpace || e.Knowledge != GivenClustering {
		t.Errorf("COALA misclassified: %+v", e)
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("unknown algorithm should not resolve")
	}
}

func TestTaxonomyMatchesTutorialClaims(t *testing.T) {
	// Spot-check rows against the tutorial's table (slide 116).
	checks := []struct {
		name  string
		space SearchSpace
		proc  Processing
		know  Knowledge
		sols  Solutions
	}{
		{"MetaClustering", OriginalSpace, IndependentProcessing, NoKnowledge, ManySolutions},
		{"DecorrelatedKMeans", OriginalSpace, SimultaneousProcessing, NoKnowledge, ManySolutions},
		{"MetricFlip", TransformedSpace, IterativeProcessing, GivenClustering, TwoSolutions},
		{"OrthogonalProjections", TransformedSpace, IterativeProcessing, GivenClustering, ManySolutions},
		{"CLIQUE", SubspaceProjections, IndependentProcessing, NoKnowledge, ManySolutions},
		{"ASCLU", SubspaceProjections, SimultaneousProcessing, GivenClustering, ManySolutions},
		{"CoEM", MultipleSources, SimultaneousProcessing, NoKnowledge, OneSolution},
	}
	for _, c := range checks {
		e, ok := Lookup(c.name)
		if !ok {
			t.Errorf("%s missing", c.name)
			continue
		}
		if e.Space != c.space || e.Processing != c.proc || e.Knowledge != c.know || e.Solutions != c.sols {
			t.Errorf("%s misclassified: %+v", c.name, e)
		}
	}
}

func TestWriteTable(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(Registry())+1 {
		t.Errorf("table has %d lines, want %d", len(lines), len(Registry())+1)
	}
	for _, name := range []string{"COALA", "CLIQUE", "CoEM", "OSCLU"} {
		if !strings.Contains(out, name) {
			t.Errorf("table missing %s", name)
		}
	}
	// Grouped by space: original rows precede subspace rows.
	if strings.Index(out, "MetaClustering") > strings.Index(out, "CLIQUE") {
		t.Error("table not grouped by search space")
	}
}

func TestEnumStrings(t *testing.T) {
	if OriginalSpace.String() != "original" || SubspaceProjections.String() != "subspaces" {
		t.Error("SearchSpace names wrong")
	}
	if IterativeProcessing.String() != "iterative" {
		t.Error("Processing names wrong")
	}
	if GivenClustering.String() != "given clustering" {
		t.Error("Knowledge names wrong")
	}
	if TwoSolutions.String() != "m = 2" {
		t.Error("Solutions names wrong")
	}
	if DissimilarViews.String() != "dissimilarity" {
		t.Error("ViewHandling names wrong")
	}
	// Unknown values still render.
	if SearchSpace(99).String() == "" || Processing(99).String() == "" ||
		Knowledge(99).String() == "" || Solutions(99).String() == "" || ViewHandling(99).String() == "" {
		t.Error("unknown enum values should render")
	}
}
