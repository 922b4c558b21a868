// Package experiments regenerates every figure and table of the tutorial
// "Discovering Multiple Clustering Solutions" as printable tables with
// deterministic synthetic workloads. Each experiment function is
// self-contained and cheap enough to double as a benchmark body; the
// per-experiment index lives in DESIGN.md and the measured outcomes in
// EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Table is one regenerated figure or table.
type Table struct {
	ID      string // experiment id, e.g. "E01"
	Title   string // what the figure/table shows
	Slides  string // tutorial slides the claim comes from
	Columns []string
	Rows    [][]string
	Notes   []string // the tutorial's qualitative claim and whether it held
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s (slides %s): %s\n", t.ID, t.Slides, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := writeRow(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "   note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Runner produces one experiment table.
type Runner func() (*Table, error)

// registry maps experiment ids to runners; populated by init functions in
// the per-paradigm files.
var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// IDs returns all experiment ids in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes the experiment with the given id.
func Run(id string) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return r()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func d0(v int) string     { return fmt.Sprintf("%d", v) }
