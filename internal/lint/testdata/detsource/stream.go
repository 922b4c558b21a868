// Streaming-snapshot shapes for the detsource analyzer: a snapshot is a
// Result the replay harness compares byte for byte, so wall-clock or
// global entropy flowing into one breaks chunked-replay determinism even
// when every seed is pinned.
package fixture

import (
	"math/rand"
	"time"
)

// SnapshotResult mirrors the streaming layer's snapshot surface.
type SnapshotResult struct {
	Labels   []int
	RowsSeen int64
	SSE      float64
	Stamp    int64
}

type streamCfg struct{ Seed int64 }

// Stamping the snapshot with the wall clock: two replays of the same
// chunk sequence now differ — the streaming true positive.
func stampedSnapshot(labels []int, rows int64) *SnapshotResult {
	s := &SnapshotResult{Labels: labels, RowsSeen: rows}
	s.Stamp = time.Now().UnixNano() // want `wall-clock/global entropy flows into fixture.SnapshotResult.Stamp`
	return s
}

// Laundered variant: per-chunk elapsed time folded into the snapshot's
// quality number through locals and arithmetic.
func driftedSSE(labels []int, sse float64) *SnapshotResult {
	start := time.Now()
	elapsed := time.Since(start)
	jitter := elapsed.Seconds() * 1e-9
	s := &SnapshotResult{Labels: labels}
	s.SSE = sse + jitter // want `wall-clock/global entropy flows into fixture.SnapshotResult.SSE`
	return s
}

// Global draw used to break SSE ties between snapshots.
func tieBrokenSnapshot(labels []int) SnapshotResult {
	tie := rand.Float64() // want `global rand.Float64`
	return SnapshotResult{
		Labels: labels,
		SSE:    tie, // want `wall-clock/global entropy flows into fixture.SnapshotResult.SSE`
	}
}

// True negative: everything in the snapshot derives from the config seed
// and the chunk sequence — the streaming determinism contract.
func seededSnapshot(cfg streamCfg, labels []int, rows int64) *SnapshotResult {
	rng := rand.New(rand.NewSource(cfg.Seed + rows))
	return &SnapshotResult{Labels: labels, RowsSeen: rows, SSE: rng.Float64()}
}

// True negative: per-chunk timing goes to telemetry beside the snapshot,
// never into it.
func timedChunk(labels []int, rows int64) (*SnapshotResult, int64) {
	start := time.Now()
	s := &SnapshotResult{Labels: labels, RowsSeen: rows}
	return s, time.Since(start).Nanoseconds()
}
