// Command multiclust runs a multiple-clustering algorithm on a CSV dataset
// and prints the discovered solutions with quality metrics.
//
// Usage:
//
//	multiclust -algo <name> [-in data.csv] [flags]
//
// Every algorithm of the internal/registry table is runnable by name; `-h`
// lists them under -algo, and `-algo taxonomy` prints the tutorial's
// comparison table instead of clustering.
//
// When -in is omitted a demonstration dataset (the four-blob toy) is used.
// The given-knowledge algorithms (listed by -h under -given) read the known
// clustering from -given, a CSV with one integer label per line; if omitted
// the result of k-means is used as the given clustering. No other
// algorithm reads -given or derives it.
//
// With -stream the dataset is replayed through the incremental layer in
// chunks of -chunk rows instead of one batch solve: -algo selects the
// streaming learner (again listed by -h), each chunk prints a progress
// line, and the final snapshot is reported when the stream ends.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"multiclust"
	"multiclust/internal/jobs/chaos"
	"multiclust/internal/ops"
	"multiclust/internal/registry"
	"multiclust/serve"
)

func main() {
	var (
		algo       = flag.String("algo", "taxonomy", "algorithm to run: taxonomy (the comparison table), "+batchNames)
		in         = flag.String("in", "", "input CSV file (default: built-in toy dataset)")
		header     = flag.Bool("header", true, "input CSV has a header row")
		givenF     = flag.String("given", "", "file with one integer label per line: the given clustering of "+givenNames+" (default: k-means with -k)")
		k          = flag.Int("k", 2, "number of clusters (per solution)")
		seed       = flag.Int64("seed", 1, "random seed")
		eps        = flag.Float64("eps", 0.1, "DBSCAN epsilon")
		minPts     = flag.Int("minpts", 4, "DBSCAN minPts")
		xi         = flag.Int("xi", 10, "grid intervals per dimension")
		tau        = flag.Float64("tau", 0.1, "grid density threshold / significance")
		workers    = flag.Int("workers", 0, "worker goroutines for parallel hot paths (0 = MULTICLUST_WORKERS env, then GOMAXPROCS); results are identical for any value")
		traceF     = flag.String("trace", "", "after the run, write its spans to this file as Chrome trace-event JSON (open in chrome://tracing or Perfetto); the newest 1024 spans are kept")
		metrics    = flag.Bool("metrics", false, "after the run, dump recorded counters/series in Prometheus text format to stdout")
		metricsOut = flag.String("metrics-out", "", "write the Prometheus dump to this file instead of stdout, keeping clustering output clean (implies -metrics)")
		serveAddr  = flag.String("serve", "", "serve live ops endpoints (/metrics, /spans, /healthz, /readyz, /debug/pprof/) and the async job API (/v1/jobs) on this host:port during the run, then block until interrupted")
		jobWorkers = flag.Int("jobs-workers", 0, "worker goroutines for the /v1/jobs engine (0 = the -workers value, then MULTICLUST_WORKERS env, then GOMAXPROCS; not capped at GOMAXPROCS)")
		jobQueue   = flag.Int("jobs-queue", 0, "bounded admission queue for /v1/jobs (0 = default 64); a full queue answers 429")
		drainTO    = flag.Duration("drain-timeout", 10*time.Second, "on SIGINT/SIGTERM, wait this long for running jobs before cutting them to best-so-far")
		streamMode = flag.Bool("stream", false, "replay the dataset through the incremental layer chunk by chunk (-algo "+streamNames+")")
		chunkRows  = flag.Int("chunk", 64, "rows per chunk in -stream mode")
		logF       = flag.String("log", "", "write structured JSONL logs (HTTP access lines, job lifecycle lines) to this file, or '-' for stderr")
		logLevel   = flag.String("log-level", "info", "minimum log level for -log: debug, info, warn or error")
	)
	flag.Parse()
	multiclust.SetWorkers(*workers)

	// With no flag asking for telemetry the recorder stays nil and the
	// instrumented hot paths pay only their nil checks.
	var collector *multiclust.Collector
	if *metrics || *metricsOut != "" || *serveAddr != "" || *traceF != "" {
		collector = multiclust.NewCollector()
	}
	multiclust.SetRecorder(collector)
	logger, logClose, err := setupLogger(*logF, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "multiclust:", err)
		os.Exit(1)
	}

	var handle *ops.Handle
	var engine *serve.Engine
	var poller *multiclust.RuntimePoller
	var sigCh chan os.Signal
	if *serveAddr != "" {
		// Register for shutdown signals before the listener is even up:
		// the moment the URL is printed, clients may probe and orchestrate
		// a SIGTERM, and the main goroutine may not be scheduled again in
		// between — the signal must never reach the default handler.
		sigCh = make(chan os.Signal, 1)
		signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
		cfg := serve.Config{Workers: *jobWorkers, QueueSize: *jobQueue, Log: logger}
		if os.Getenv("MULTICLUST_JOBS_TESTRUNNERS") == "1" {
			// Integration tests drive a real -serve process with the
			// deterministic fault battery mounted under chaos-* names.
			cfg.Runners = chaos.TestRunners()
		}
		engine = serve.New(cfg)
		api := engine.Handler()
		handle, err = ops.ServeOpts(*serveAddr, collector, ops.MuxOptions{
			Ready: engine.Ready,
			Mounts: map[string]http.Handler{
				"/v1/jobs":  api,
				"/v1/jobs/": api,
			},
			Log: logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "multiclust:", err)
			os.Exit(1)
		}
		// Process-health gauges (goroutines, heap, GC pauses) refresh on a
		// fixed tick while the ops surface is up, so /metrics answers with
		// live runtime state.
		poller = multiclust.StartRuntimePoller(collector, 5*time.Second)
		fmt.Fprintf(os.Stderr, "multiclust: ops endpoints at %s\n", handle.URL)
	}
	if *streamMode {
		err = runStream(*algo, *in, *header, registry.Params{K: *k, Seed: *seed}, *chunkRows)
	} else {
		err = run(*algo, *in, *header, *givenF, registry.Params{
			K: *k, Seed: *seed, Eps: *eps, MinPts: *minPts, Xi: *xi, Tau: *tau, Restarts: 5,
		})
	}
	if *traceF != "" {
		terr := writeFile(*traceF, func(w io.Writer) error { return collector.WriteChromeTrace(w, "") })
		if err == nil {
			err = terr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "multiclust:", err)
		os.Exit(1)
	}
	if err := dumpMetrics(collector, *metrics, *metricsOut); err != nil {
		fmt.Fprintln(os.Stderr, "multiclust:", err)
		os.Exit(1)
	}
	if handle != nil {
		fmt.Fprintln(os.Stderr, "multiclust: run finished; ops endpoints stay up — interrupt (Ctrl-C) to exit")
		<-sigCh
		// Graceful drain: stop admitting jobs, let running ones finish
		// within the deadline, then cut stragglers to their best-so-far
		// so no admitted job is lost — only then close the listener.
		if engine != nil {
			dctx, dstop := context.WithTimeout(context.Background(), *drainTO)
			rep := engine.Drain(dctx)
			dstop()
			fmt.Fprintf(os.Stderr, "multiclust: drained jobs done=%d partial=%d failed=%d cancelled=%d truncated=%v\n",
				rep.Done, rep.Partial, rep.Failed, rep.Cancelled, rep.Truncated)
		}
		poller.Stop()
		if err := handle.Shutdown(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "multiclust:", err)
			os.Exit(1)
		}
	}
	if err := logClose(); err != nil {
		fmt.Fprintln(os.Stderr, "multiclust:", err)
		os.Exit(1)
	}
}

// setupLogger resolves the -log/-log-level flags: no -log means no logger
// (nil is a valid no-op everywhere it is wired), "-" logs to stderr, any
// other value appends to that file. The returned close function flushes
// and reports the first log write error.
func setupLogger(path, level string) (*serve.Logger, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	min, err := serve.ParseLogLevel(level)
	if err != nil {
		return nil, nil, err
	}
	if path == "-" {
		logger := serve.NewLogger(os.Stderr, min)
		return logger, logger.Err, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("open -log file: %w", err)
	}
	logger := serve.NewLogger(f, min)
	return logger, func() error {
		werr := logger.Err()
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		return werr
	}, nil
}

// dumpMetrics renders the collector after the run: to the -metrics-out
// file when given, else to stdout when -metrics was passed (the historic
// behaviour). A collector created only for -serve or -trace dumps nowhere.
func dumpMetrics(collector *multiclust.Collector, toStdout bool, outFile string) error {
	if collector == nil {
		return nil
	}
	if outFile != "" {
		return writeFile(outFile, collector.WriteProm)
	}
	if !toStdout {
		return nil
	}
	fmt.Println("--- metrics ---")
	return collector.WriteProm(os.Stdout)
}

// writeFile creates path and fills it with render's output.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The registry names, in table order, behind the -algo, -stream and -given
// usage texts.
var (
	batchNames  = algoNames(func(a registry.Algorithm) bool { return a.Run != nil })
	streamNames = algoNames(func(a registry.Algorithm) bool { return a.Stream != nil })
	givenNames  = algoNames(func(a registry.Algorithm) bool { return a.Given })
)

func algoNames(keep func(registry.Algorithm) bool) string {
	var names []string
	for _, a := range registry.All() {
		if keep(a) {
			names = append(names, a.Name)
		}
	}
	return strings.Join(names, ", ")
}

// run clusters the dataset with the named registry algorithm and prints
// the result; "taxonomy" prints the comparison table instead. The given
// clustering is read or derived only for algorithms that consume one.
func run(algo, in string, header bool, givenF string, p registry.Params) error {
	if algo == "taxonomy" {
		return multiclust.WriteTaxonomyTable(os.Stdout)
	}
	a, ok := registry.Lookup(algo)
	if ok && a.Run == nil {
		return fmt.Errorf("algorithm %q runs only with -stream", algo)
	}
	if !ok {
		return fmt.Errorf("unknown algorithm %q (want taxonomy, %s)", algo, batchNames)
	}
	ds, truths, err := loadData(in, header)
	if err != nil {
		return err
	}
	fmt.Printf("dataset: n=%d d=%d\n", ds.N(), ds.Dim())
	p.Points = ds.Points
	if a.Given {
		if p.Given, err = loadGiven(givenF, ds, p); err != nil {
			return err
		}
	}
	res, err := a.Run(context.Background(), p)
	if err != nil {
		return err
	}
	printResult(algo, ds.Points, truths, res)
	return nil
}

// printResult is the one printer of every algorithm's result: each
// partition with its size, noise and silhouette (plus ARI against the
// ground truths of the built-in toy), the subspace clusters, the subspace
// ranking, and the scalar stats.
func printResult(name string, points [][]float64, truths [][]int, res *registry.Result) {
	for i, c := range res.Partitions {
		label := name
		if len(res.Partitions) > 1 {
			label = fmt.Sprintf("%s solution %d", name, i+1)
		}
		fmt.Printf("%s: k=%d noise=%d silhouette=%.3f", label, c.K(), c.NoiseCount(), multiclust.Silhouette(points, c))
		for v, truth := range truths {
			fmt.Printf(" ARI(view%d)=%.2f", v+1, multiclust.AdjustedRand(truth, c.Labels))
		}
		fmt.Printf("\n  labels: %s\n", labelString(c.Labels, 40))
	}
	if m := res.Subspace; m != nil {
		fmt.Printf("%s: %d subspace clusters in %d subspaces\n", name, len(m), len(m.GroupBySubspace()))
		printCapped(len(m), func(i int) { fmt.Printf("  %s\n", m[i]) })
	}
	if res.Ranking != nil {
		fmt.Printf("%s subspace ranking (best first):\n", name)
		printCapped(len(res.Ranking), func(i int) {
			fmt.Printf("  %v%s\n", res.Ranking[i].Dims, statString(res.Ranking[i].Scores))
		})
	}
	if len(res.Stats) > 0 {
		fmt.Printf("  stats:%s\n", statString(res.Stats))
	}
}

// printCapped prints the first 15 of n list lines, then how many it cut.
func printCapped(n int, line func(i int)) {
	const max = 15
	for i := 0; i < n && i < max; i++ {
		line(i)
	}
	if n > max {
		fmt.Printf("  ... %d more\n", n-max)
	}
}

// statString renders named values as " name=value" pairs in name order,
// each value in its shortest exact form.
func statString(stats map[string]float64) string {
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, " %s=%s", name, strconv.FormatFloat(stats[name], 'g', -1, 64))
	}
	return b.String()
}

// runStream replays the dataset through the named algorithm's incremental
// learner: the rows are cut into chunks of chunkRows, each pushed and
// followed by one progress line of the learner's stats, and the final
// snapshot is printed at the end. The result is a pure function of
// (config, chunk sequence): replaying the same file with the same flags
// reproduces it byte for byte.
func runStream(algo, in string, header bool, p registry.Params, chunkRows int) error {
	a, ok := registry.Lookup(algo)
	if !ok || a.Stream == nil {
		return fmt.Errorf("algorithm %q has no streaming mode (want %s)", algo, streamNames)
	}
	if chunkRows <= 0 {
		return fmt.Errorf("-chunk must be positive, got %d", chunkRows)
	}
	ds, _, err := loadData(in, header)
	if err != nil {
		return err
	}
	fmt.Printf("dataset: n=%d d=%d, streaming in chunks of %d\n", ds.N(), ds.Dim(), chunkRows)
	l, err := a.Stream(p)
	if err != nil {
		return err
	}
	ctx := context.Background()
	for at := 0; at < len(ds.Points); at += chunkRows {
		if err := l.Push(ctx, ds.Points[at:min(at+chunkRows, len(ds.Points))]); err != nil {
			return err
		}
		snap, err := l.Snapshot(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("chunk %d:%s\n", at/chunkRows+1, statString(snap.Stats))
	}
	snap, err := l.Snapshot(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("stream %s: k=%d solutions=%d%s\n", algo, snap.Clusters(), len(snap.Partitions), statString(snap.Stats))
	for i, c := range snap.Partitions {
		fmt.Printf("  solution %d (latest chunk): k=%d labels: %s\n", i+1, c.K(), labelString(c.Labels, 40))
	}
	return nil
}

// loadData reads the CSV, or builds the toy with its two ground truths.
func loadData(path string, header bool) (*multiclust.Dataset, [][]int, error) {
	if path == "" {
		ds, hor, ver := multiclust.FourBlobToy(1, 25)
		return ds, [][]int{hor, ver}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	ds, err := multiclust.ReadCSV(f, header)
	return ds, nil, err
}

// loadGiven reads a labels file or derives a k-means clustering.
func loadGiven(path string, ds *multiclust.Dataset, p registry.Params) (*multiclust.Clustering, error) {
	if path == "" {
		res, err := multiclust.KMeans(ds.Points, multiclust.KMeansConfig{K: p.K, Seed: p.Seed, Restarts: p.Restarts})
		if err != nil {
			return nil, err
		}
		return res.Clustering, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	labels, err := readLabels(f)
	if err != nil {
		return nil, err
	}
	c := multiclust.NewClustering(labels)
	if err := c.Validate(ds.N()); err != nil {
		return nil, err
	}
	return c, nil
}

func readLabels(r io.Reader) ([]int, error) {
	var labels []int
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		v, err := strconv.Atoi(line)
		if err != nil {
			return nil, fmt.Errorf("bad label %q: %w", line, err)
		}
		labels = append(labels, v)
	}
	return labels, sc.Err()
}

func labelString(labels []int, max int) string {
	var b strings.Builder
	for i, l := range labels {
		if i == max {
			fmt.Fprintf(&b, "... (%d total)", len(labels))
			break
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", l)
	}
	return b.String()
}
