// Package parallel is the shared worker-pool layer of multiclust. Every hot
// path (pairwise distances, k-means assignment and restarts, DBSCAN region
// queries, spectral affinities, ensemble generation) funnels its fan-out
// through this package so one knob governs the whole library.
//
// Worker-count resolution, in priority order:
//
//  1. a positive per-call override (e.g. a Workers field on an algorithm
//     config),
//  2. the process-wide default installed with SetDefault (the facade's
//     multiclust.SetWorkers),
//  3. the MULTICLUST_WORKERS environment variable,
//  4. runtime.GOMAXPROCS(0).
//
// Determinism contract: the helpers here only decide WHERE work runs, never
// what it computes. Callers keep results independent of scheduling by
// pre-deriving per-task seeds and reducing in index order; every wired hot
// path in the library produces byte-identical output for any worker count.
//
// Panic containment: a panic inside a worker is captured — never allowed to
// crash the process from a pool goroutine — and re-raised on the calling
// goroutine as a *PanicError carrying the task index and worker stack. In
// Each/Map every index is still evaluated after a panic, so the re-raised
// panic is the one from the LOWEST panicking index regardless of worker
// count or scheduling.
//
// Profiling attribution: worker goroutines inherit the runtime/pprof
// labels of the goroutine that called For/Each/Map (the Go runtime copies
// labels to spawned goroutines), so when a caller opens an obs.SpanCtx
// span — which applies algo/phase labels — CPU samples taken inside the
// fanned-out shards are attributed to the phase that dispatched them. No
// code here touches labels; the guarantee is inheritance.
package parallel

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"

	"multiclust/internal/obs"
)

// EnvVar is the environment variable consulted when no explicit worker count
// is set.
const EnvVar = "MULTICLUST_WORKERS"

var defaultWorkers atomic.Int64

// SetDefault installs a process-wide default worker count, taking precedence
// over the environment and GOMAXPROCS. n <= 0 clears the default.
func SetDefault(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Default returns the process-wide default set by SetDefault (0 when unset).
func Default() int { return int(defaultWorkers.Load()) }

// Workers resolves the effective worker count for one call site; see the
// package comment for the priority order. The result is always >= 1.
func Workers(override int) int {
	if override > 0 {
		return override
	}
	if d := Default(); d > 0 {
		return d
	}
	if s := os.Getenv(EnvVar); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError is how a worker panic surfaces on the calling goroutine: the
// pool captures the panic, and after all tasks finish the caller re-panics
// with this wrapper carrying the task index and the worker's stack trace.
// Recover it at an API boundary (the facade's robust.RecoverTo) to turn it
// into an error.
type PanicError struct {
	Index int    // task index (block start for For) that panicked
	Value any    // original panic value
	Stack []byte // worker goroutine stack at the point of the panic
}

// Error formats the panic with its task context.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v", e.Index, e.Value)
}

// Unwrap exposes an underlying error panic value to errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// panicCapture keeps the panic from the lowest task index seen so far.
type panicCapture struct {
	mu  sync.Mutex
	err *PanicError
}

func (c *panicCapture) protect(idx int, f func()) {
	defer func() {
		if r := recover(); r != nil {
			obs.Count(obs.Default(), "parallel.panics_contained", 1)
			stack := debug.Stack()
			c.mu.Lock()
			if c.err == nil || idx < c.err.Index {
				c.err = &PanicError{Index: idx, Value: r, Stack: stack}
			}
			c.mu.Unlock()
		}
	}()
	f()
}

func (c *panicCapture) rethrow() {
	if c.err != nil {
		panic(c.err)
	}
}

// For splits the index range [0, n) into at most `workers` contiguous blocks
// and runs fn(lo, hi) on each block concurrently, returning when all blocks
// are done. workers <= 0 resolves via Workers(0). Block boundaries depend
// only on n and the resolved worker count, never on scheduling. A panic in
// one block aborts that block only; once every block finishes, the panic
// from the lowest block start is re-raised on the caller as *PanicError.
func For(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := clampWorkers(workers, n)
	noteDispatch(n, w)
	var pc panicCapture
	if w == 1 {
		pc.protect(0, func() { fn(0, n) })
		pc.rethrow()
		return
	}
	chunk, rem := n/w, n%w
	var wg sync.WaitGroup
	lo := 0
	for i := 0; i < w; i++ {
		hi := lo + chunk
		if i < rem {
			hi++
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			pc.protect(lo, func() { fn(lo, hi) })
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
	pc.rethrow()
}

// Each runs fn(i) for every i in [0, n), handing indices to workers through
// an atomic cursor. Use it instead of For when per-index cost is very uneven
// (triangular loops, cluster expansions) so fast workers steal the tail.
// Panic containment is per index: a panicking index does not stop the rest,
// every index is still evaluated, and the panic from the lowest index is
// re-raised on the caller as *PanicError — identical for any worker count.
func Each(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := clampWorkers(workers, n)
	noteDispatch(n, w)
	var pc panicCapture
	if w == 1 {
		for i := 0; i < n; i++ {
			i := i
			pc.protect(i, func() { fn(i) })
		}
		pc.rethrow()
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				pc.protect(i, func() { fn(i) })
			}
		}()
	}
	wg.Wait()
	pc.rethrow()
}

// Map computes fn(i) for every i in [0, n) concurrently and returns the
// results in index order, so the output is independent of scheduling.
func Map[T any](n, workers int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	Each(n, workers, func(i int) { out[i] = fn(i) })
	return out
}

// noteDispatch records one fan-out into the process-wide recorder: how
// many tasks were dispatched and how many workers served them. Both are
// additive, so the totals are identical for any scheduling; their ratio
// is the mean tasks-per-worker utilization. The single atomic load behind
// obs.Default dominates the disabled cost — one nil check per For/Each
// call, never per task.
func noteDispatch(n, w int) {
	rec := obs.Default()
	if rec == nil {
		return
	}
	obs.Count(rec, "parallel.dispatches", 1)
	obs.Count(rec, "parallel.tasks", int64(n))
	obs.Count(rec, "parallel.workers", int64(w))
}

func clampWorkers(workers, n int) int {
	w := workers
	if w <= 0 {
		w = Workers(0)
		// A resolved (defaulted) count is capped at the schedulable CPUs:
		// more pool goroutines than cores cannot run concurrently and only
		// add spawn/switch overhead — half of the CI-documented "slower at
		// workers=4" bug on small runners. An explicit per-call override is
		// honored verbatim (tests force fan-out this way to exercise the
		// concurrent paths under -race). Results are unaffected either way:
		// every wired hot path is byte-identical for any worker count (see
		// the package comment's determinism contract).
		if p := runtime.GOMAXPROCS(0); w > p {
			w = p
		}
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}
