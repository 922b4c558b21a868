package main

import (
	"io"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// lintRepoBudget is the wall-clock ceiling for one full self-host run —
// parse, type-check, and every analyzer over every package. The
// interactive contract is "make lint is something you run on every save";
// a run that blows this budget is a performance regression in the engine
// (an accidental quadratic CFG walk, a taint fixpoint that stopped
// converging), not runner noise, which is why the ceiling is ~15x the
// typical dev-machine time rather than a tight pin.
const lintRepoBudget = 60 * time.Second

// repoRoot resolves the module root from this package's directory. Resolve
// it once, before lintWholeRepo changes into it: a later "../.." would be
// relative to the root.
func repoRoot(tb testing.TB) string {
	root, err := filepath.Abs("../..")
	if err != nil {
		tb.Fatal(err)
	}
	return root
}

func lintWholeRepo(tb testing.TB, root string) {
	chdir(tb, root)
	var errOut strings.Builder
	if code := run([]string{"./..."}, io.Discard, &errOut); code != 0 {
		tb.Fatalf("multiclust-lint ./... exited %d\nstderr:\n%s", code, errOut.String())
	}
}

// selfHost is the one whole-tree lint of a test run: TestSelfHostRepoClean
// checks its findings and TestLintRepoTimeBudget its wall time, so the
// tree, which takes seconds to lint, is linted once rather than per test.
var selfHost struct {
	once        sync.Once
	done        bool
	code        int
	out, errOut string
	elapsed     time.Duration
}

// lintSelfHost runs `multiclust-lint ./...` from the module root on its
// first call and fails t unless that run exited 0; later calls reuse it.
// It returns the run's findings and its wall time.
func lintSelfHost(t *testing.T) (findings string, elapsed time.Duration) {
	t.Helper()
	selfHost.once.Do(func() {
		chdir(t, repoRoot(t))
		var out, errOut strings.Builder
		start := time.Now()
		selfHost.code = run([]string{"./..."}, &out, &errOut)
		selfHost.elapsed = time.Since(start)
		selfHost.out, selfHost.errOut = out.String(), errOut.String()
		selfHost.done = true
	})
	if !selfHost.done {
		t.Fatal("the shared multiclust-lint ./... run stopped before it finished; see the test that started it")
	}
	if selfHost.code != 0 {
		t.Fatalf("multiclust-lint ./... exited %d\nstdout:\n%s\nstderr:\n%s", selfHost.code, selfHost.out, selfHost.errOut)
	}
	return selfHost.out, selfHost.elapsed
}

// BenchmarkLintRepo times the full self-host run; `go test -bench LintRepo`
// is the profiling entry point when the budget test starts flirting with
// its ceiling.
func BenchmarkLintRepo(b *testing.B) {
	root := repoRoot(b)
	for i := 0; i < b.N; i++ {
		lintWholeRepo(b, root)
	}
}

// TestLintRepoTimeBudget pins the budget in the ordinary test run, so a
// lint-engine slowdown fails CI even though nobody runs benchmarks there.
func TestLintRepoTimeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing pin skipped in -short mode")
	}
	if _, elapsed := lintSelfHost(t); elapsed > lintRepoBudget {
		t.Fatalf("full-repo lint took %v, budget is %v — profile with go test -bench LintRepo", elapsed, lintRepoBudget)
	}
}
