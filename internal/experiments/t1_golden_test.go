package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestT1Golden pins experiment T1's columns and rows (testdata/T1.golden,
// one tab-separated line each, the column header first). Regenerate with
// `go test ./internal/experiments -run TestT1Golden -update` only for an
// intended change to the taxonomy table.
func TestT1Golden(t *testing.T) {
	tbl, err := Run("T1")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	got.WriteString(strings.Join(tbl.Columns, "\t") + "\n")
	for _, row := range tbl.Rows {
		got.WriteString(strings.Join(row, "\t") + "\n")
	}
	path := filepath.Join("testdata", "T1.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("T1 differs from %s\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
