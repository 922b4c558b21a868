// Package stream is the incremental/streaming layer over the batch
// clustering library: three learners — mini-batch k-means, a mergeable
// sliding-window ensemble, and online co-EM — behind a common
// Push(rows) / Snapshot() / Reset() surface, so the service can cluster
// unbounded row streams chunk by chunk instead of one-shot datasets.
//
// Contract (pinned by internal/stream/streamtest):
//
//   - Determinism: a learner's state after pushing a chunk sequence is a
//     pure function of (config, chunk sequence). All randomness derives
//     from the config seed; chunk-sharded work fans out over
//     internal/parallel with per-slot writes only, so snapshots are
//     byte-identical at any worker count.
//   - Equivalence: pushing the whole dataset as a single chunk is
//     byte-identical to the corresponding batch algorithm on the same
//     rows (kmeans.RunContext, metaclust.RunContext, multiview.CoEM).
//     Multi-chunk streams drift from the batch solution; the drift is
//     bounded and the bound is pinned by the harness, not exact.
//   - Cancellation: PushContext polls its context at the chunk boundary
//     (and threads it into any inner batch solve). An interrupted push
//     leaves the learner in its last consistent state — best-so-far —
//     and returns an error wrapping core.ErrInterrupted.
//   - Telemetry: every accepted chunk counts stream.chunks and
//     stream.rows_seen; every snapshot counts stream.snapshots. Counters
//     are additive across workers and runs.
package stream

import (
	"context"
	"fmt"

	"multiclust/internal/core"
	"multiclust/internal/obs"
	"multiclust/internal/robust"
)

// Counter names of the streaming layer.
const (
	cntChunks    = "stream.chunks"
	cntRowsSeen  = "stream.rows_seen"
	cntSnapshots = "stream.snapshots"
	cntReseeds   = "stream.reseeds"
	cntEvicted   = "stream.evicted_chunks"
)

// checkChunk validates one pushed chunk against the learner's dimension
// (zero until the first chunk fixes it). Every failure is a typed error:
// core.ErrEmptyDataset, core.ErrInvalidInput, or core.ErrShape.
func checkChunk(rows [][]float64, d int) (int, error) {
	if err := robust.ValidateDataset(rows); err != nil {
		return 0, err
	}
	if d > 0 && len(rows[0]) != d {
		return 0, fmt.Errorf("stream: chunk has %d dims, stream has %d: %w", len(rows[0]), d, core.ErrShape)
	}
	return len(rows[0]), nil
}

// boundary polls ctx at a chunk boundary. A cancelled context rejects the
// chunk before any state changes — the learner keeps its last consistent
// (best-so-far) state — with an error wrapping core.ErrInterrupted.
func boundary(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("stream: push interrupted at chunk boundary: %v: %w", err, core.ErrInterrupted)
	}
	return nil
}

// countChunk records the per-chunk counters for one accepted chunk.
func countChunk(rec *obs.Collector, rows int) {
	rec.Count(cntChunks, 1)
	rec.Count(cntRowsSeen, int64(rows))
}
