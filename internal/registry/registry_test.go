package registry

import (
	"slices"
	"testing"

	"multiclust/internal/taxonomy"
)

// unlinkedRows are the taxonomy rows with no runnable entry: result-set
// selectors, multi-view methods that need views or labelings as input,
// and the ones only reachable through the library.
var unlinkedRows = []string{
	"STATPC", "RESCU", "OSCLU", "ASCLU", "MSC", "MVDBSCAN",
	"TwoViewSpectral", "RandomProjectionEnsemble", "CSPA",
}

func TestNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || seen[a.Name] {
			t.Errorf("empty or duplicate name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Run == nil && a.Stream == nil {
			t.Errorf("%s: neither Run nor Stream", a.Name)
		}
		if a.Served && a.Run == nil {
			t.Errorf("%s: served without a batch Run", a.Name)
		}
		if got, ok := Lookup(a.Name); !ok || got.Name != a.Name {
			t.Errorf("Lookup(%q) = %q, %v", a.Name, got.Name, ok)
		}
	}
	if _, ok := Lookup("taxonomy"); ok {
		t.Error("taxonomy is a CLI table, not an algorithm")
	}
}

// TestTaxonomyLinks: every link resolves to its exact taxonomy row, and
// every row is linked exactly once or listed in unlinkedRows.
func TestTaxonomyLinks(t *testing.T) {
	links := map[string]int{}
	var base []string
	for _, a := range All() {
		if a.Taxonomy == "" {
			base = append(base, a.Name)
			continue
		}
		e, ok := taxonomy.Lookup(a.Taxonomy)
		if !ok || e.Algorithm != a.Taxonomy {
			t.Errorf("%s: taxonomy link %q does not resolve", a.Name, a.Taxonomy)
		}
		links[a.Taxonomy]++
	}
	if want := []string{"kmeans", "dbscan", "em", "spectral"}; !slices.Equal(base, want) {
		t.Errorf("unclassified entries %v, want the base learners %v", base, want)
	}
	unlinked := map[string]bool{}
	for _, name := range unlinkedRows {
		unlinked[name] = true
	}
	for _, e := range taxonomy.Registry() {
		switch n := links[e.Algorithm]; {
		case unlinked[e.Algorithm] && n != 0:
			t.Errorf("%s is listed unlinked but linked %d times", e.Algorithm, n)
		case !unlinked[e.Algorithm] && n != 1:
			t.Errorf("%s linked %d times, want exactly once", e.Algorithm, n)
		}
	}
}
