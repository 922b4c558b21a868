// Fixture for the detsource analyzer: wall-clock and global-entropy values
// flowing — possibly through intermediate locals — into clustering Result
// fields. Timing that feeds telemetry, and values derived from the config
// seed, are the true negatives.
package fixture

import (
	"math/rand"
	"time"
)

// Result mirrors the clustering result shape of the module's algorithms.
type Result struct {
	Labels     []int
	SSE        float64
	Seed       int64
	Iterations int
}

// FitResult exercises the …Result suffix match.
type FitResult struct {
	Score float64
}

type Config struct{ Seed int64 }

// Direct flow: the entropy call is the assigned expression itself.
func directClock(labels []int) *Result {
	res := &Result{Labels: labels}
	res.Seed = time.Now().UnixNano() // want `wall-clock/global entropy flows into fixture.Result.Seed`
	return res
}

// Laundered flow: the clock value passes through two locals and arithmetic
// before reaching the Result — the blind spot a call-site check cannot see.
func launderedClock(labels []int) *Result {
	t0 := time.Now()
	stamp := t0.UnixNano()
	shifted := stamp / 1000
	res := &Result{Labels: labels}
	res.Seed = shifted // want `wall-clock/global entropy flows into fixture.Result.Seed`
	return res
}

// Composite-literal sink: tainted value used in the literal itself.
func literalClock(labels []int) Result {
	elapsed := time.Since(time.Now())
	return Result{
		Labels: labels,
		SSE:    elapsed.Seconds(), // want `wall-clock/global entropy flows into fixture.Result.SSE`
	}
}

// Global rand draw reaching a suffixed Result type.
func globalDraw() FitResult {
	x := rand.Float64() // want `global rand.Float64`
	y := x * 2
	return FitResult{
		Score: y, // want `wall-clock/global entropy flows into fixture.FitResult.Score`
	}
}

// True negative: seed comes from the config, never from the environment.
func fromConfigSeed(cfg Config, labels []int) *Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{Labels: labels}
	res.Seed = cfg.Seed
	res.SSE = rng.Float64()
	return res
}

// True negative: wall-clock timing that feeds telemetry, not the Result.
func timedRun(labels []int) (*Result, time.Duration) {
	start := time.Now()
	res := &Result{Labels: labels, Seed: 42}
	elapsed := time.Since(start)
	return res, elapsed
}

// True negative: tainted value stored in a non-Result struct.
type report struct{ tookNS int64 }

func intoReport() report {
	return report{tookNS: time.Now().UnixNano()}
}
