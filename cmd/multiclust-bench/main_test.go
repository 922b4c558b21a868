package main

import (
	"flag"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func report(ns int64, counters map[string]int64) Report {
	return Report{
		Schema: Schema,
		Stamp:  "t",
		Quick:  true,
		Workloads: []Workload{
			{Name: "kmeans/w1", Paradigm: "partitional", Workers: 1, NsOp: ns, Counters: counters},
		},
	}
}

func TestCompareCleanRunPasses(t *testing.T) {
	base := report(1000, map[string]int64{"kmeans.iterations": 10})
	cur := report(1050, map[string]int64{"kmeans.iterations": 10}) // +5% < 10%
	if regs, _ := compare(base, cur, 10, 10); len(regs) != 0 {
		t.Errorf("clean run flagged: %v", regs)
	}
}

// The acceptance contract: an injected regression must be caught and
// reported so main exits non-zero.
func TestCompareDetectsInjectedRegressions(t *testing.T) {
	base := report(1000, map[string]int64{"kmeans.iterations": 10, "kmeans.reassignments": 100})
	cases := []struct {
		name string
		cur  Report
		want string
	}{
		{"ns/op growth", report(1200, map[string]int64{"kmeans.iterations": 10, "kmeans.reassignments": 100}), "ns/op"},
		{"counter growth", report(1000, map[string]int64{"kmeans.iterations": 14, "kmeans.reassignments": 100}), "kmeans.iterations"},
		{"counter shrink", report(1000, map[string]int64{"kmeans.iterations": 10, "kmeans.reassignments": 80}), "kmeans.reassignments"},
		{"counter vanished", report(1000, map[string]int64{"kmeans.iterations": 10}), "disappeared"},
		{"workload missing", Report{Schema: Schema, Quick: true}, "missing from current run"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			regs, _ := compare(base, tc.cur, 10, 10)
			if len(regs) == 0 {
				t.Fatal("regression not detected")
			}
			if !strings.Contains(strings.Join(regs, "\n"), tc.want) {
				t.Errorf("regressions %v do not mention %q", regs, tc.want)
			}
		})
	}
}

// TestCompareFilteredRun pins that a -filter run is compared only with the
// baseline workloads of the cases it ran: the others are not missing.
func TestCompareFilteredRun(t *testing.T) {
	base := report(1000, nil)
	base.Workloads = append(base.Workloads, Workload{Name: "subclu/w1", NsOp: 1000}, Workload{Name: "subclu/w4", NsOp: 1000})
	cur := Report{Schema: Schema, Quick: true, Workloads: base.Workloads[1:]}
	if regs, _ := compare(base.selected("subclu"), cur, 10, 10); len(regs) != 0 {
		t.Errorf("filtered run flagged: %v", regs)
	}
	if regs, _ := compare(base.selected(""), cur, 10, 10); len(regs) != 1 || !strings.Contains(regs[0], "kmeans/w1: workload missing") {
		t.Errorf("unfiltered run must miss kmeans/w1, got %v", regs)
	}
}

func TestCompareRejectsModeAndSchemaMismatch(t *testing.T) {
	base := report(1000, nil)
	full := report(1000, nil)
	full.Quick = false
	if regs, _ := compare(base, full, 10, 10); len(regs) != 1 || !strings.Contains(regs[0], "mode mismatch") {
		t.Errorf("quick-vs-full comparison must be refused, got %v", regs)
	}
	other := report(1000, nil)
	other.Schema = "multiclust-bench/v0"
	if regs, _ := compare(base, other, 10, 10); len(regs) != 1 || !strings.Contains(regs[0], "schema mismatch") {
		t.Errorf("schema mismatch must be refused, got %v", regs)
	}
}

func TestCompareIgnoresNewWorkloads(t *testing.T) {
	base := report(1000, nil)
	cur := report(1000, nil)
	cur.Workloads = append(cur.Workloads, Workload{Name: "new/w1", NsOp: 99})
	if regs, _ := compare(base, cur, 10, 10); len(regs) != 0 {
		t.Errorf("a new workload is not a regression: %v", regs)
	}
}

// TestCompareNotesNewCounters pins the new-counter contract: a counter
// present in the current run but absent from the baseline is NOT a
// regression, but it must surface as a "new, not in baseline" note
// rather than being skipped silently.
func TestCompareNotesNewCounters(t *testing.T) {
	base := report(1000, map[string]int64{"kmeans.iterations": 10})
	cur := report(1000, map[string]int64{"kmeans.iterations": 10, "kmeans.distance_computations": 4242})
	regs, notes := compare(base, cur, 10, 10)
	if len(regs) != 0 {
		t.Errorf("new counter flagged as regression: %v", regs)
	}
	if len(notes) != 1 {
		t.Fatalf("got %d notes, want 1: %v", len(notes), notes)
	}
	if !strings.Contains(notes[0], "kmeans.distance_computations") || !strings.Contains(notes[0], "new, not in baseline") {
		t.Errorf("note %q does not identify the new counter", notes[0])
	}
}

func TestAssertLe(t *testing.T) {
	// Pin a multi-core view so the w1-vs-w4 comparison is active: on a
	// single-CPU machine both sides clamp to the same effective worker
	// count and the check goes vacuous (covered below).
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	cur := Report{Schema: Schema, Quick: true, Workloads: []Workload{
		{Name: "coala/w1", Workers: 1, NsOp: 100},
		{Name: "coala/w4", Workers: 4, NsOp: 90},
	}}
	if v, _ := assertLe(cur, []string{"coala/w4<=coala/w1"}); len(v) != 0 {
		t.Errorf("holding assertion flagged: %v", v)
	}
	if v, _ := assertLe(cur, []string{"coala/w1<=coala/w4"}); len(v) != 1 || !strings.Contains(v[0], "ns/op") {
		t.Errorf("violated assertion not flagged: %v", v)
	}
	if v, _ := assertLe(cur, []string{"coala/w1<=missing/w9"}); len(v) != 1 || !strings.Contains(v[0], "not in current report") {
		t.Errorf("unknown workload not flagged: %v", v)
	}
	if v, _ := assertLe(cur, []string{"garbage"}); len(v) != 1 || !strings.Contains(v[0], "bad -assert-le spec") {
		t.Errorf("malformed spec not flagged: %v", v)
	}
}

// TestAssertLeVacuousOnSingleCPU pins the scheduler-clamp escape hatch: when
// both sides of a relational assertion resolve to the same effective worker
// count (e.g. GOMAXPROCS=1), they run identical code, so the harness must
// report the check as vacuous instead of coin-flipping on timing noise.
func TestAssertLeVacuousOnSingleCPU(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	cur := Report{Schema: Schema, Quick: true, Workloads: []Workload{
		{Name: "coala/w1", Workers: 1, NsOp: 100},
		{Name: "coala/w4", Workers: 4, NsOp: 170}, // would violate if compared
	}}
	v, notes := assertLe(cur, []string{"coala/w4<=coala/w1"})
	if len(v) != 0 {
		t.Errorf("vacuous assertion flagged: %v", v)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "vacuous") {
		t.Errorf("vacuous skip not noted: %v", notes)
	}
}

func TestWorkloadsCoverTheParadigms(t *testing.T) {
	cases, err := workloads()
	if err != nil {
		t.Fatal(err)
	}
	paradigms := map[string]bool{}
	for _, bc := range cases {
		if paradigms[bc.paradigm] {
			t.Errorf("duplicate paradigm %q", bc.paradigm)
		}
		paradigms[bc.paradigm] = true
	}
	if len(paradigms) < 5 {
		t.Errorf("suite covers %d paradigms, want >= 5", len(paradigms))
	}
	for _, want := range []string{"partitional", "ensemble", "multiview"} {
		if !paradigms[want] {
			t.Errorf("paradigm %q missing", want)
		}
	}
}

// End-to-end: run the fastest workload for one iteration, write the
// report, reload it, and compare it against itself (must be clean).
func TestRunSuiteRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	rep, err := runSuite("kmeans", true, "test", func(string) {})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workerCounts) {
		t.Fatalf("got %d workloads, want %d", len(rep.Workloads), len(workerCounts))
	}
	for _, w := range rep.Workloads {
		if w.NsOp <= 0 {
			t.Errorf("%s: ns_op = %d, want > 0", w.Name, w.NsOp)
		}
		if w.Counters["kmeans.iterations"] == 0 {
			t.Errorf("%s: instrumented run recorded no kmeans.iterations: %v", w.Name, w.Counters)
		}
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	if err := writeReport(rep, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Schema != Schema || loaded.Stamp != "test" || !loaded.Quick || loaded.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("round-trip lost fields: %+v", loaded)
	}
	if regs, _ := compare(loaded, rep, 10, 10); len(regs) != 0 {
		t.Errorf("self-comparison flagged regressions: %v", regs)
	}
}

func TestLoadReportRejectsUnknownSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := writeReport(Report{Schema: "other/v9"}, path); err != nil {
		t.Fatal(err)
	}
	if _, err := loadReport(path); err == nil {
		t.Error("wrong schema accepted")
	}
}

func TestRunSuiteUnknownFilter(t *testing.T) {
	if _, err := runSuite("no-such-workload", true, "t", func(string) {}); err == nil {
		t.Error("empty filter result must error")
	}
}
