// Command multiclust-bench runs the canonical workload suite — one
// workload per clustering paradigm — and writes a machine-readable
// benchmark report for regression tracking.
//
//	go run ./cmd/multiclust-bench [-quick] [-out file] [-baseline old.json -threshold 10]
//
// Each workload runs at 1 and 4 workers through testing.Benchmark with
// the recorder disabled (so timings measure the algorithms, not the
// telemetry), then once more instrumented with an obs.Collector to
// capture the deterministic per-run work counters (iterations, distance
// evaluations, subspaces examined, ...). The report is JSON with schema
// "multiclust-bench/v1":
//
//	{
//	  "schema": "multiclust-bench/v1",
//	  "stamp": "20260805T120000Z",
//	  "go": "go1.24.0",
//	  "quick": false,
//	  "workloads": [
//	    {"name": "kmeans/w1", "paradigm": "partitional", "workers": 1,
//	     "ns_op": 1234567, "allocs_op": 890, "bytes_op": 45678,
//	     "counters": {"kmeans.iterations": 11, ...}},
//	    ...
//	  ]
//	}
//
// With -baseline the current run is compared against an earlier report:
// ns/op may grow at most -threshold percent (timings are noisy; CI uses
// a loose gate) and the work counters may drift at most
// -counter-threshold percent (they are deterministic for a fixed seed,
// so the strict default of 10 catches real algorithmic regressions).
// A counter present now but absent from the baseline is surfaced as a
// "new, not in baseline" NOTE rather than silently skipped. Any
// regression, a workload missing from the current run, or a quick/full
// mode mismatch with the baseline exits non-zero.
//
// Timings keep the minimum of three repeats (floor estimator; a
// preempted repeat cannot inflate the report) and each measurement is
// preceded by runtime.GC so no workload pays for its predecessor's
// garbage. Relational expectations between workloads are asserted with
// repeatable -assert-le "A<=B" flags (CI: "coala/w4<=coala/w1"); an
// assertion whose two sides clamp to the same effective worker count
// (min(workers, GOMAXPROCS)) is vacuous — the configurations run
// identical code — and is reported as a NOTE instead of compared.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"multiclust"
	"multiclust/internal/jobs/chaos"
	"multiclust/internal/ops"
	"multiclust/serve"
)

// Schema identifies the report format for downstream consumers.
const Schema = "multiclust-bench/v1"

// workerCounts are the parallelism levels every workload runs at.
var workerCounts = []int{1, 4}

// Report is the top-level JSON document.
type Report struct {
	Schema     string     `json:"schema"`
	Stamp      string     `json:"stamp"`
	Go         string     `json:"go"`
	GOMAXPROCS int        `json:"gomaxprocs"` // caps every defaulted worker count
	Quick      bool       `json:"quick"`
	Workloads  []Workload `json:"workloads"`
}

// Workload is one (paradigm, workers) measurement.
type Workload struct {
	Name     string           `json:"name"` // "<workload>/w<workers>"
	Paradigm string           `json:"paradigm"`
	Workers  int              `json:"workers"`
	NsOp     int64            `json:"ns_op"`
	AllocsOp int64            `json:"allocs_op"`
	BytesOp  int64            `json:"bytes_op"`
	Counters map[string]int64 `json:"counters"`
}

// benchCase couples a workload name with the closure that runs it once.
// The dataset is built by the constructor, outside the timed loop, so
// ns/op covers only the clustering work.
type benchCase struct {
	name     string
	paradigm string
	run      func() error
}

// workloads builds the canonical suite: one representative per paradigm
// of the taxonomy (partitional baseline, grid and density subspace
// search, alternative-given, ensemble meta clustering, multi-view).
// All seeds are fixed; every workload is deterministic.
func workloads() ([]benchCase, error) {
	blobs, _ := multiclust.GaussianBlobs(1, 600, [][]float64{
		{0, 0, 0, 0}, {4, 4, 0, 0}, {0, 4, 4, 0}, {4, 0, 0, 4},
	}, 0.6)
	subDS, _, err := multiclust.SubspaceData(1, 400, 6, []multiclust.SubspaceSpec{
		{Dims: []int{0, 1}, Size: 120, Width: 0.08},
		{Dims: []int{3, 4}, Size: 100, Width: 0.08},
	})
	if err != nil {
		return nil, err
	}
	toy, _, _ := multiclust.FourBlobToy(1, 60)
	given, err := multiclust.KMeans(toy.Points, multiclust.KMeansConfig{K: 2, Seed: 1})
	if err != nil {
		return nil, err
	}
	meta, _, _ := multiclust.FourBlobToy(1, 40)
	viewA, viewB, _ := multiclust.TwoSourceViews(1, 300, 3, 4, 4, 0.5, 0)
	streamBlobs, _ := multiclust.GaussianBlobs(1, 6000, [][]float64{
		{0, 0, 0, 0}, {4, 4, 0, 0}, {0, 4, 4, 0}, {4, 0, 0, 4},
	}, 0.6)

	return []benchCase{
		{"kmeans", "partitional", func() error {
			_, err := multiclust.KMeans(blobs.Points, multiclust.KMeansConfig{K: 4, Restarts: 4, Seed: 1})
			return err
		}},
		{"clique", "subspace-grid", func() error {
			_, err := multiclust.Clique(subDS.Points, multiclust.CliqueConfig{Xi: 10, Tau: 0.08})
			return err
		}},
		{"subclu", "subspace-density", func() error {
			_, err := multiclust.Subclu(subDS.Points, multiclust.SubcluConfig{Eps: 0.06, MinPts: 4, MaxDim: 2})
			return err
		}},
		{"coala", "alternative", func() error {
			_, err := multiclust.Coala(toy.Points, given.Clustering, multiclust.CoalaConfig{K: 2})
			return err
		}},
		{"metaclust", "ensemble", func() error {
			_, err := multiclust.MetaClustering(meta.Points, multiclust.MetaClusteringConfig{
				K: 2, NumSolutions: 12, MetaClusters: 3, Seed: 1,
			})
			return err
		}},
		{"coem", "multiview", func() error {
			_, err := multiclust.CoEM(viewA.Points, viewB.Points, multiclust.CoEMConfig{K: 3, Seed: 2})
			return err
		}},
		{"minibatch", "streaming-partitional", func() error {
			// One pass of the incremental layer: the streaming blob dataset
			// replayed through mini-batch k-means in 1500-row chunks, plus a
			// final snapshot. A fresh learner per op keeps the measured work
			// constant (the learner accumulates state across pushes); the
			// chunks are large enough that the row-sharded assign fan-out
			// dominates dispatch overhead, which is what the w4<=w1 gate
			// checks.
			m, err := multiclust.NewStreamKMeans(multiclust.StreamKMeansConfig{K: 4, Seed: 1})
			if err != nil {
				return err
			}
			for at := 0; at < len(streamBlobs.Points); at += 1500 {
				end := at + 1500
				if end > len(streamBlobs.Points) {
					end = len(streamBlobs.Points)
				}
				if err := m.Push(streamBlobs.Points[at:end]); err != nil {
					return err
				}
			}
			_, err = m.Snapshot()
			return err
		}},
		{"ensemble-window", "streaming-ensemble", func() error {
			// Sliding-window ensemble with eviction on the hot path: six
			// 40-row chunks through a 3-chunk window, so half the stream is
			// evicted before the grouped snapshot.
			e, err := multiclust.NewStreamEnsemble(multiclust.StreamEnsembleConfig{
				K: 2, Seed: 1, Window: 3, PerChunk: 6, MetaClusters: 3,
			})
			if err != nil {
				return err
			}
			for at := 0; at+40 <= 240; at += 40 {
				if err := e.Push(meta.Points[at%len(meta.Points) : at%len(meta.Points)+40]); err != nil {
					return err
				}
			}
			_, err = e.Snapshot()
			return err
		}},
		{"obs-http", "observability", func() error {
			// The full per-request observability path, no clustering: one
			// traced status GET plus one Chrome-trace render against an
			// already-terminal job, through the Instrument middleware
			// (traceparent parse, context plumbing, route histogram,
			// status capture). ns/op is the request-scoped telemetry tax.
			h, id := obsHTTPEnv()
			req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil)
			req.Header.Set("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
			rw := httptest.NewRecorder()
			h.ServeHTTP(rw, req)
			if rw.Code != http.StatusOK {
				return fmt.Errorf("obs-http: status GET returned %d", rw.Code)
			}
			req = httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/trace", nil)
			rw = httptest.NewRecorder()
			h.ServeHTTP(rw, req)
			if rw.Code != http.StatusOK {
				return fmt.Errorf("obs-http: trace GET returned %d", rw.Code)
			}
			return nil
		}},
		{"jobs", "service", func() error {
			// Submit one no-op job and wait for its terminal state: the
			// measured ns/op is pure engine overhead — admission, queueing,
			// worker dispatch, state machine — with zero clustering inside.
			j, _, err := jobsEngine().Submit(serve.Spec{Algo: "noop", Points: toy.Points, Seed: 1})
			if err != nil {
				return err
			}
			<-j.Done()
			return j.Err()
		}},
	}, nil
}

// jobsEngine lazily builds the dispatch-overhead engine on first use, so
// -list and filtered runs that skip the jobs workload never start (or leak)
// its worker pool. The bench process exits without a drain, which is fine:
// every measured job is awaited to its terminal state.
var jobsEngine = sync.OnceValue(func() *serve.Engine {
	return serve.New(serve.Config{
		Workers:   2,
		QueueSize: 64,
		Runners:   map[string]serve.Runner{"noop": chaos.Instant()},
	})
})

// obsHTTPEnv lazily builds the obs-http fixture: a no-op job run to its
// terminal state once, outside the timed loop, plus the engine handler
// wrapped in the same Instrument middleware the CLI serves. Lazy for the
// same reason jobsEngine is — a filtered run that skips obs-http must not
// start a worker pool.
var obsHTTPEnv = sync.OnceValues(func() (http.Handler, string) {
	e := serve.New(serve.Config{
		Workers:   1,
		QueueSize: 8,
		Runners:   map[string]serve.Runner{"noop": chaos.Instant()},
	})
	j, _, err := e.Submit(serve.Spec{Algo: "noop", Points: [][]float64{{0, 0}, {1, 1}}, Seed: 1})
	if err != nil {
		panic("obs-http fixture: " + err.Error())
	}
	<-j.Done()
	return ops.Instrument(e.Handler(), nil), j.ID
})

// measureRepeats is how many timed repeats measure keeps the minimum of.
const measureRepeats = 3

// measure times one case with the recorder disabled, then replays it once
// under a Collector for the deterministic work counters.
func measure(bc benchCase, workers int) (Workload, error) {
	multiclust.SetWorkers(workers)
	defer multiclust.SetWorkers(0)

	// Collect before timing so one workload's garbage (subclu allocates tens
	// of MB per op) is not paid for — noisily — inside the next workload's
	// measurement. Quick mode runs only a few iterations, so a stray GC cycle
	// would otherwise dominate the smaller timings.
	runtime.GC()

	multiclust.SetRecorder(nil)
	var runErr error
	// Keep the fastest of a few timed repeats: the minimum is the standard
	// floor estimator for benchmarks on shared machines — one preempted or
	// GC-interrupted repeat cannot inflate the reported ns/op, which matters
	// for the relational gates (-assert-le) comparing workloads measured
	// seconds apart.
	var res testing.BenchmarkResult
	for rep := 0; rep < measureRepeats; rep++ {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.run(); err != nil {
					runErr = err
					b.FailNow()
				}
			}
		})
		if runErr != nil {
			return Workload{}, fmt.Errorf("%s (workers=%d): %w", bc.name, workers, runErr)
		}
		if rep == 0 || r.NsPerOp() < res.NsPerOp() {
			res = r
		}
	}

	col := multiclust.NewCollector()
	multiclust.SetRecorder(col)
	err := bc.run()
	multiclust.SetRecorder(nil)
	if err != nil {
		return Workload{}, fmt.Errorf("%s (workers=%d, instrumented): %w", bc.name, workers, err)
	}
	return Workload{
		Name:     fmt.Sprintf("%s/w%d", bc.name, workers),
		Paradigm: bc.paradigm,
		Workers:  workers,
		NsOp:     res.NsPerOp(),
		AllocsOp: res.AllocsPerOp(),
		BytesOp:  res.AllocedBytesPerOp(),
		Counters: col.Snapshot().Counters,
	}, nil
}

// compare reports every regression of cur against base, plus
// informational notes. Timings (ns/op) may grow at most threshold
// percent; counters may drift — in either direction, a drop in work done
// is as suspicious as growth — at most counterThreshold percent.
// Workloads present only in cur are fine (new benchmarks); workloads
// missing from cur are regressions. Counters present only in cur are NOT
// regressions — new instrumentation lands before the baseline is
// refreshed — but each one is surfaced as a "new, not in baseline" note
// so it cannot slip by silently.
func compare(base, cur Report, threshold, counterThreshold float64) (regressions, notes []string) {
	if base.Schema != cur.Schema {
		return []string{fmt.Sprintf("schema mismatch: baseline %q vs current %q", base.Schema, cur.Schema)}, nil
	}
	if base.Quick != cur.Quick {
		return []string{fmt.Sprintf("mode mismatch: baseline quick=%v vs current quick=%v — timings are not comparable", base.Quick, cur.Quick)}, nil
	}
	curBy := make(map[string]Workload, len(cur.Workloads))
	for _, w := range cur.Workloads {
		curBy[w.Name] = w
	}
	for _, b := range base.Workloads {
		c, ok := curBy[b.Name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: workload missing from current run", b.Name))
			continue
		}
		if b.NsOp > 0 {
			pct := 100 * float64(c.NsOp-b.NsOp) / float64(b.NsOp)
			if pct > threshold {
				regressions = append(regressions, fmt.Sprintf("%s: ns/op %d -> %d (%+.1f%% > %.0f%%)", b.Name, b.NsOp, c.NsOp, pct, threshold))
			}
		}
		for _, k := range sortedKeys(b.Counters) {
			bv := b.Counters[k]
			cv, ok := c.Counters[k]
			if !ok {
				regressions = append(regressions, fmt.Sprintf("%s: counter %s disappeared (baseline %d)", b.Name, k, bv))
				continue
			}
			if bv == 0 {
				if cv != 0 {
					regressions = append(regressions, fmt.Sprintf("%s: counter %s %d -> %d (baseline zero)", b.Name, k, bv, cv))
				}
				continue
			}
			pct := 100 * float64(cv-bv) / float64(bv)
			if pct > counterThreshold || pct < -counterThreshold {
				regressions = append(regressions, fmt.Sprintf("%s: counter %s %d -> %d (%+.1f%% beyond ±%.0f%%)", b.Name, k, bv, cv, pct, counterThreshold))
			}
		}
		for _, k := range sortedKeys(c.Counters) {
			if _, ok := b.Counters[k]; !ok {
				notes = append(notes, fmt.Sprintf("%s: counter %s = %d — new, not in baseline", b.Name, k, c.Counters[k]))
			}
		}
	}
	return regressions, notes
}

// assertLe evaluates "A<=B" assertions against the current report: the
// ns/op of workload A must not exceed that of workload B. This is how CI
// pins relational performance contracts the percent gates cannot express
// — e.g. that coala at 4 workers is no slower than at 1.
// effectiveWorkers mirrors the parallel layer's scheduler clamp: a resolved
// worker count above the schedulable CPUs cannot add concurrency.
func effectiveWorkers(w int) int {
	if p := runtime.GOMAXPROCS(0); w > p {
		return p
	}
	return w
}

func assertLe(cur Report, specs []string) (violations, notes []string) {
	byName := make(map[string]Workload, len(cur.Workloads))
	for _, w := range cur.Workloads {
		byName[w.Name] = w
	}
	for _, spec := range specs {
		parts := strings.SplitN(spec, "<=", 2)
		if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
			violations = append(violations, fmt.Sprintf("bad -assert-le spec %q, want \"A<=B\"", spec))
			continue
		}
		a, okA := byName[parts[0]]
		b, okB := byName[parts[1]]
		if !okA || !okB {
			violations = append(violations, fmt.Sprintf("-assert-le %q: workload not in current report", spec))
			continue
		}
		// When both sides clamp to the same effective parallelism (e.g. a
		// single-CPU runner, where every worker count resolves to 1), the
		// two workloads execute identical code and the relational check is
		// vacuously true — comparing their timings would only compare
		// measurement noise and turn the gate into a coin flip.
		if ea, eb := effectiveWorkers(a.Workers), effectiveWorkers(b.Workers); ea == eb {
			notes = append(notes, fmt.Sprintf("%s: both sides run %d effective worker(s) (GOMAXPROCS=%d) — identical configurations, relational check vacuous",
				spec, ea, runtime.GOMAXPROCS(0)))
			continue
		}
		if a.NsOp > b.NsOp {
			violations = append(violations, fmt.Sprintf("%s: ns/op %d > %s ns/op %d", a.Name, a.NsOp, b.Name, b.NsOp))
		}
	}
	return violations, notes
}

// stringList is a repeatable string flag.
type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runSuite measures every case matching filter at every worker count.
func runSuite(filter string, quick bool, stamp string, progress func(string)) (Report, error) {
	cases, err := workloads()
	if err != nil {
		return Report{}, err
	}
	rep := Report{Schema: Schema, Stamp: stamp, Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), Quick: quick}
	// Worker counts innermost: a workload's w1 and w4 runs execute
	// back-to-back, so relational gates like -assert-le compare numbers
	// measured seconds — not minutes — apart, before the machine's load or
	// clock frequency has time to drift between them.
	for _, bc := range cases {
		if filter != "" && !strings.Contains(bc.name, filter) {
			continue
		}
		for _, workers := range workerCounts {
			w, err := measure(bc, workers)
			if err != nil {
				return Report{}, err
			}
			progress(fmt.Sprintf("%-14s %10d ns/op %8d allocs/op %10d B/op", w.Name, w.NsOp, w.AllocsOp, w.BytesOp))
			rep.Workloads = append(rep.Workloads, w)
		}
	}
	if len(rep.Workloads) == 0 {
		return Report{}, fmt.Errorf("no workloads match filter %q", filter)
	}
	return rep, nil
}

func writeReport(rep Report, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != Schema {
		return Report{}, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, Schema)
	}
	return rep, nil
}

func main() {
	testing.Init() // registers -test.* flags so benchtime is settable below
	var (
		out              = flag.String("out", "", "report file (default BENCH_<stamp>.json)")
		stamp            = flag.String("stamp", "", "report stamp (default UTC timestamp)")
		baseline         = flag.String("baseline", "", "earlier report to compare against; regressions exit non-zero")
		threshold        = flag.Float64("threshold", 10, "max ns/op growth vs baseline, percent")
		counterThreshold = flag.Float64("counter-threshold", 10, "max work-counter drift vs baseline, percent (either direction)")
		quick            = flag.Bool("quick", false, "10 iterations per workload instead of 1s each (CI mode)")
		filter           = flag.String("filter", "", "run only workloads whose name contains this substring")
		list             = flag.Bool("list", false, "list workload names and exit")
		asserts          stringList
	)
	flag.Var(&asserts, "assert-le", "ns/op assertion \"A<=B\" between two workloads of the current run (repeatable); violations exit non-zero")
	flag.Parse()

	if *list {
		cases, err := workloads()
		if err != nil {
			fmt.Fprintln(os.Stderr, "multiclust-bench:", err)
			os.Exit(1)
		}
		for _, bc := range cases {
			fmt.Printf("%-12s %s\n", bc.name, bc.paradigm)
		}
		return
	}
	if *quick {
		if err := flag.Set("test.benchtime", "10x"); err != nil {
			fmt.Fprintln(os.Stderr, "multiclust-bench:", err)
			os.Exit(1)
		}
	}
	if *stamp == "" {
		*stamp = time.Now().UTC().Format("20060102T150405Z")
	}
	if *out == "" {
		*out = "BENCH_" + *stamp + ".json"
	}

	rep, err := runSuite(*filter, *quick, *stamp, func(line string) { fmt.Fprintln(os.Stderr, line) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "multiclust-bench:", err)
		os.Exit(1)
	}
	if err := writeReport(rep, *out); err != nil {
		fmt.Fprintln(os.Stderr, "multiclust-bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "multiclust-bench: wrote %s (%d workloads, GOMAXPROCS=%d)\n", *out, len(rep.Workloads), rep.GOMAXPROCS)

	if *baseline != "" {
		base, err := loadReport(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "multiclust-bench:", err)
			os.Exit(1)
		}
		regressions, notes := compare(base, rep, *threshold, *counterThreshold)
		for _, n := range notes {
			fmt.Fprintln(os.Stderr, "multiclust-bench: NOTE:", n)
		}
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "multiclust-bench: REGRESSION:", r)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "multiclust-bench: no regressions vs %s\n", *baseline)
	}
	violations, assertNotes := assertLe(rep, asserts)
	for _, n := range assertNotes {
		fmt.Fprintln(os.Stderr, "multiclust-bench: NOTE:", n)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "multiclust-bench: ASSERTION FAILED:", v)
		}
		os.Exit(1)
	}
}
