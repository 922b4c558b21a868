package taxonomy

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestWriteTableGolden pins the rendered comparison table byte for byte
// (testdata/table.golden); the facade's WriteTaxonomyTable prints exactly
// these bytes. Regenerate with
// `go test ./internal/taxonomy -run TestWriteTableGolden -update` only for
// an intended change to the table.
func TestWriteTableGolden(t *testing.T) {
	var got bytes.Buffer
	if err := WriteTable(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "table.golden")
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
		t.Errorf("WriteTable output differs from %s\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
