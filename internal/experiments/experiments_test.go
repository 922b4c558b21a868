package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are integration-sized")
	}
	ids := IDs()
	if len(ids) < 30 {
		t.Fatalf("registry has %d experiments, want all 30", len(ids))
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			tbl, err := Run(id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if tbl.ID != id {
				t.Errorf("table id %q != %q", tbl.ID, id)
			}
			if len(tbl.Rows) == 0 || len(tbl.Columns) == 0 {
				t.Errorf("%s: empty table", id)
			}
			if tbl.Slides == "" || tbl.Title == "" {
				t.Errorf("%s: missing metadata", id)
			}
			var buf bytes.Buffer
			if err := tbl.Render(&buf); err != nil {
				t.Fatalf("%s: render: %v", id, err)
			}
			if !strings.Contains(buf.String(), tbl.Title) {
				t.Errorf("%s: render missing title", id)
			}
		})
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("E99"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestRunAllWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are integration-sized")
	}
	var buf bytes.Buffer
	for _, id := range IDs() {
		tbl, err := Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := strings.Count(buf.String(), "== "); got != len(IDs()) {
		t.Errorf("rendered %d tables, want %d", got, len(IDs()))
	}
}

// TestHeadlineClaims pins the *shape* of the key results: who wins and in
// which direction, as recorded in EXPERIMENTS.md.
func TestHeadlineClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are integration-sized")
	}
	// E09: contrast decreases monotonically with d.
	tbl, err := Run("E09")
	if err != nil {
		t.Fatal(err)
	}
	prev := 1e18
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v >= prev {
			t.Errorf("E09 contrast not decreasing: %v", tbl.Rows)
		}
		prev = v
	}

	// E11: SCHISM reaches dimensionality 5, fixed-threshold CLIQUE does not.
	tbl, err = Run("E11")
	if err != nil {
		t.Fatal(err)
	}
	var schismDim, cliqueDim int
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row[0], "SCHISM best") {
			schismDim, _ = strconv.Atoi(row[1])
		}
		if strings.HasPrefix(row[0], "fixed-threshold") {
			cliqueDim, _ = strconv.Atoi(row[1])
		}
	}
	if schismDim < 5 || cliqueDim >= 5 {
		t.Errorf("E11 shape wrong: schism=%d clique=%d", schismDim, cliqueDim)
	}

	// E19: intersection purity must beat union purity on the unreliable
	// scenario.
	tbl, err = Run("E19")
	if err != nil {
		t.Fatal(err)
	}
	var unionP, interP float64
	for _, row := range tbl.Rows {
		if row[0] == "unreliable view" {
			v, _ := strconv.ParseFloat(row[2], 64)
			if row[1] == "union" {
				unionP = v
			} else {
				interP = v
			}
		}
	}
	if interP <= unionP {
		t.Errorf("E19 shape wrong: intersection purity %v <= union %v", interP, unionP)
	}

	// T2: every paradigm recovers the hidden view with ARI >= 0.9 and stays
	// below 0.3 on the given view.
	tbl, err = Run("T2")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		hid, err1 := strconv.ParseFloat(row[2], 64)
		giv, err2 := strconv.ParseFloat(row[3], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("T2 row not numeric: %v", row)
		}
		if hid < 0.9 || giv > 0.3 {
			t.Errorf("T2 paradigm %s failed the benchmark: hidden=%v given=%v", row[1], hid, giv)
		}
	}
}
