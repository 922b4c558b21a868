// Fixture for sharedrng's escape checks: *rand.Rand values crossing a
// parallel.For/Each/Map boundary through struct fields, channels, and worker
// return values (true positives), next to per-task generators and serial rng
// plumbing that never meets a worker (true negatives).
package fixture

import (
	"math/rand"

	"multiclust/internal/parallel"
)

type workerState struct {
	rng *rand.Rand
	sum float64
}

// TP: rng parked in a struct field that the workers then touch.
func fieldEscape(seed int64, xs []float64) float64 {
	st := &workerState{}
	st.rng = rand.New(rand.NewSource(seed)) // want `\*rand\.Rand stored into field st.rng of a struct the parallel.For workers touch`
	parallel.For(len(xs), 2, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			st.sum += st.rng.Float64() // want `\*rand.Rand field "st.rng" is shared across parallel.For workers`
		}
	})
	return st.sum
}

// TP: worker writes its generator into shared state.
func fieldEscapeFromWorker(seed int64, n int) *workerState {
	st := &workerState{}
	parallel.Each(n, 2, func(i int) {
		st.rng = rand.New(rand.NewSource(seed + int64(i))) // want `\*rand\.Rand stored into field st.rng from inside a parallel.Each worker`
	})
	return st
}

// TP: generator handed to the workers over a channel.
func channelEscape(seed int64, n int) {
	ch := make(chan *rand.Rand, 1)
	ch <- rand.New(rand.NewSource(seed)) // want `\*rand\.Rand sent on a channel the parallel.Each workers read`
	parallel.Each(n, 2, func(i int) {
		r := <-ch
		_ = r.Int63()
	})
}

// TP: worker publishes its generator on a channel.
func channelEscapeFromWorker(seed int64, n int) {
	ch := make(chan *rand.Rand, n)
	parallel.Each(n, 2, func(i int) {
		r := rand.New(rand.NewSource(seed + int64(i)))
		ch <- r // want `\*rand\.Rand sent on a channel from inside a parallel.Each worker`
	})
	close(ch)
}

// TP: parallel.Map collecting the generators themselves.
func returnEscape(seed int64, n int) []*rand.Rand {
	return parallel.Map(n, 2, func(i int) *rand.Rand {
		return rand.New(rand.NewSource(seed + int64(i))) // want `parallel.Map worker returns its \*rand\.Rand`
	})
}

// True negative: the approved per-task pattern — generator derived, used,
// and dropped inside the worker.
func perTask(seed int64, n int) []float64 {
	return parallel.Map(n, 2, func(i int) float64 {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		return rng.Float64()
	})
}

// True negative: a struct field rng in a function with no parallel call.
func serialFieldStore(seed int64) *workerState {
	st := &workerState{}
	st.rng = rand.New(rand.NewSource(seed))
	return st
}

// True negative: channel of generators plumbed entirely outside any worker.
func serialChannel(seed int64) *rand.Rand {
	ch := make(chan *rand.Rand, 1)
	ch <- rand.New(rand.NewSource(seed))
	return <-ch
}

// True negative: parallel work nearby, but the rng never escapes — only the
// drawn values reach the shared slice.
func drawnValuesOnly(seed int64, n int) []float64 {
	out := make([]float64, n)
	parallel.Each(n, 2, func(i int) {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		out[i] = rng.Float64()
	})
	return out
}

// TP: the worker reaches the generator only through a helper it hands the
// struct to — no *rand.Rand is captured or selected inside the closure, so
// only the field store outside the worker shows the sharing.
func fieldEscapeViaHelper(seed int64, xs []float64) float64 {
	st := &workerState{}
	st.rng = rand.New(rand.NewSource(seed)) // want `\*rand\.Rand stored into field st.rng of a struct the parallel.For workers touch`
	parallel.For(len(xs), 2, func(lo, hi int) {
		accumulate(st, xs, lo, hi)
	})
	return st.sum
}

func accumulate(st *workerState, xs []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		st.sum += xs[i] * st.rng.Float64()
	}
}
