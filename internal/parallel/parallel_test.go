package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	t.Setenv(EnvVar, "")
	SetDefault(0)
	if got := Workers(3); got != 3 {
		t.Errorf("override: Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("fallback: Workers(0) = %d, want GOMAXPROCS", got)
	}

	t.Setenv(EnvVar, "5")
	if got := Workers(0); got != 5 {
		t.Errorf("env: Workers(0) = %d, want 5", got)
	}
	if got := Workers(2); got != 2 {
		t.Errorf("override beats env: Workers(2) = %d", got)
	}

	SetDefault(7)
	defer SetDefault(0)
	if got := Workers(0); got != 7 {
		t.Errorf("SetDefault beats env: Workers(0) = %d, want 7", got)
	}
	if got := Default(); got != 7 {
		t.Errorf("Default() = %d, want 7", got)
	}

	t.Setenv(EnvVar, "not-a-number")
	SetDefault(0)
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("bad env ignored: Workers(0) = %d", got)
	}
}

func TestForCoversRangeOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100} {
		for _, w := range []int{1, 2, 3, 16} {
			hits := make([]int32, n)
			For(n, w, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("bad block [%d,%d) for n=%d w=%d", lo, hi, n, w)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, h)
				}
			}
		}
	}
}

func TestEachCoversRangeOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64} {
		for _, w := range []int{1, 4, 100} {
			hits := make([]int32, n)
			Each(n, w, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, h)
				}
			}
		}
	}
}

func TestMapOrdered(t *testing.T) {
	got := Map(10, 4, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Map[%d] = %d", i, v)
		}
	}
	if Map(0, 4, func(i int) int { return i }) != nil {
		t.Error("Map(0, ...) should be nil")
	}
}

func TestEachPanicContained(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		var visited atomic.Int32
		func() {
			defer func() {
				r := recover()
				pe, ok := r.(*PanicError)
				if !ok {
					t.Fatalf("w=%d: recovered %T (%v), want *PanicError", w, r, r)
				}
				// Indices 3 and 11 both panic; the lowest must win for
				// every worker count.
				if pe.Index != 3 {
					t.Errorf("w=%d: panic index %d, want 3", w, pe.Index)
				}
				if fmt.Sprint(pe.Value) != "boom 3" {
					t.Errorf("w=%d: panic value %v", w, pe.Value)
				}
				if len(pe.Stack) == 0 {
					t.Errorf("w=%d: missing worker stack", w)
				}
				if !strings.Contains(pe.Error(), "task 3") {
					t.Errorf("w=%d: Error() = %q", w, pe.Error())
				}
			}()
			Each(16, w, func(i int) {
				visited.Add(1)
				if i == 3 || i == 11 {
					panic(fmt.Sprintf("boom %d", i))
				}
			})
			t.Fatalf("w=%d: Each should have re-panicked", w)
		}()
		if visited.Load() != 16 {
			t.Errorf("w=%d: visited %d indices, want all 16 despite panics", w, visited.Load())
		}
	}
}

func TestForPanicContained(t *testing.T) {
	for _, w := range []int{1, 3} {
		func() {
			defer func() {
				pe, ok := recover().(*PanicError)
				if !ok || fmt.Sprint(pe.Value) != "block boom" {
					t.Fatalf("w=%d: unexpected recover %v", w, pe)
				}
			}()
			For(12, w, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if i == 5 {
						panic("block boom")
					}
				}
			})
			t.Fatalf("w=%d: For should have re-panicked", w)
		}()
	}
}

func TestPanicErrorUnwrap(t *testing.T) {
	sentinel := errors.New("inner")
	pe := &PanicError{Index: 0, Value: sentinel}
	if !errors.Is(pe, sentinel) {
		t.Error("PanicError should unwrap an error panic value")
	}
	if (&PanicError{Value: "text"}).Unwrap() != nil {
		t.Error("non-error panic value should unwrap to nil")
	}
}
