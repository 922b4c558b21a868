# multiclust build/test/benchmark entry points. Stdlib-only; any Go >= 1.22.

GO ?= go

.PHONY: all build vet fmt-check lint lint-json lint-sarif lint-fix test race cover bench bench-json bench-baseline experiments examples fuzz fuzz-smoke chaos chaos-serve stream-chaos logs-check e2ebench-check ci clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any Go file, test fixtures included, is not gofmt-formatted.
fmt-check:
	test -z "$$(gofmt -l .)"

# Determinism & parallel-safety static analysis (see internal/lint and
# DESIGN.md "Determinism invariants"). Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/multiclust-lint ./...

# Machine-readable findings artifact (findings + suggested edits). The
# leading dash keeps the artifact even when findings make the run exit 1.
lint-json:
	-$(GO) run ./cmd/multiclust-lint -json ./... > lint-findings.json

# SARIF 2.1.0 artifact for GitHub code scanning upload.
lint-sarif:
	-$(GO) run ./cmd/multiclust-lint -sarif ./... > lint-findings.sarif

# Apply the mechanical fixes (ctx forwarding, sorted-keys idiom) in place.
# Refuses on a dirty worktree; -force overrides.
lint-fix:
	$(GO) run ./cmd/multiclust-lint -fix ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Per-package coverage plus an aggregate per-function summary line.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# One benchmark per regenerated figure/table plus scalability micro-benches.
# -run='^$$' skips the unit tests so only benchmarks execute.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# Canonical paradigm workload suite -> BENCH_<stamp>.json, gated against
# the committed baseline. Timings get a loose gate (they are noisy on
# shared runners); the deterministic work counters get the strict one.
bench-json:
	$(GO) run ./cmd/multiclust-bench -quick -baseline BENCH_baseline.json -threshold 200 -counter-threshold 10 -assert-le "coala/w4<=coala/w1" -assert-le "minibatch/w4<=minibatch/w1"

# Refresh the committed baseline after an intentional performance change.
bench-baseline:
	$(GO) run ./cmd/multiclust-bench -quick -stamp baseline -out BENCH_baseline.json

# Regenerate every experiment table (see DESIGN.md / EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/customer
	$(GO) run ./examples/sensor
	$(GO) run ./examples/genes
	$(GO) run ./examples/text

# Short fuzz sessions over the parsing, metric, index, subspace-search,
# streaming, request-decoding and number-conversion surfaces. -fuzz must
# match exactly one target per package, hence the anchored names.
fuzz:
	$(GO) test -fuzz=FuzzReadCSV -fuzztime=30s ./internal/dataset/
	$(GO) test -fuzz=FuzzComparisonMeasures -fuzztime=30s ./internal/metrics/
	$(GO) test -fuzz='^FuzzGridEqualsLinear$$' -fuzztime=30s ./internal/dbscan/
	$(GO) test -fuzz='^FuzzSubcluEqualsReference$$' -fuzztime=30s ./internal/subspace/
	$(GO) test -fuzz='^FuzzChunkedReplay$$' -fuzztime=30s ./internal/stream/
	$(GO) test -fuzz='^FuzzSubmitSpec$$' -fuzztime=30s ./internal/jobs/
	$(GO) test -fuzz='^FuzzAppend$$' -fuzztime=30s ./internal/jobs/
	$(GO) test -fuzz='^FuzzParseNumber$$' -fuzztime=30s ./internal/jobs/

# 10-second smoke fuzz, the same step CI runs on every push.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadCSV -fuzztime=10s ./internal/dataset/
	$(GO) test -run='^$$' -fuzz=FuzzComparisonMeasures -fuzztime=10s ./internal/metrics/
	$(GO) test -run='^$$' -fuzz='^FuzzGridEqualsLinear$$' -fuzztime=10s ./internal/dbscan/
	$(GO) test -run='^$$' -fuzz='^FuzzSubcluEqualsReference$$' -fuzztime=10s ./internal/subspace/
	$(GO) test -run='^$$' -fuzz='^FuzzChunkedReplay$$' -fuzztime=10s ./internal/stream/
	$(GO) test -run='^$$' -fuzz='^FuzzSubmitSpec$$' -fuzztime=10s ./internal/jobs/
	$(GO) test -run='^$$' -fuzz='^FuzzAppend$$' -fuzztime=10s ./internal/jobs/
	$(GO) test -run='^$$' -fuzz='^FuzzParseNumber$$' -fuzztime=10s ./internal/jobs/

# Fault-injection property suite under the race detector: seeded corrupters
# (internal/robust/chaos) against every facade algorithm, plus the
# cancellation and validation-gate contracts. The timeout bounds any single
# hang so a wedged iteration fails fast instead of stalling CI.
chaos:
	$(GO) test -race -timeout 120s -run 'TestChaos|TestCancelled|TestValidationGates|TestRobustness' .
	$(GO) test -race -timeout 120s ./internal/robust/...

# Service-layer fault injection under the race detector: the job engine's
# property suite (panic containment, exactly-one terminal state, 429-iff-full
# backpressure, lossless drain), the public serve facade, and the real-binary
# SIGTERM drain integration test.
chaos-serve:
	$(GO) test -race -timeout 180s ./internal/jobs/... ./serve/...
	$(GO) test -race -timeout 180s -run 'TestServe' ./cmd/multiclust/

# Streaming fault injection under the race detector: chunk appends racing
# cancels and a graceful drain against the fault-handle fleet, plus the
# chunked-replay determinism harness at workers 1/2/4/8.
stream-chaos:
	$(GO) test -race -timeout 180s -run 'TestStreamProperty' ./internal/jobs/chaos/
	$(GO) test -race -timeout 180s ./internal/stream/...

# Structured-log schema contract: every JSONL line the logger emits — the
# middleware's http.request access lines and the engine's job.state
# transition lines — must validate against obs.ValidateLogLine. Run after
# any change to the log fields so dashboards parsing the stream never
# break silently.
logs-check:
	$(GO) test -run 'TestLogSchema' -count=1 ./internal/obs/ ./internal/ops/ ./internal/jobs/

# The end-to-end benchmark (e2ebench/) is its own Go module that imports
# serve and internal packages, so root ./... never compiles it: vet and
# test it separately, so an API break shows up here and not only when the
# benchmark runs.
e2ebench-check:
	$(GO) -C e2ebench vet ./...
	$(GO) -C e2ebench test ./...

# Everything the GitHub Actions workflow runs, locally.
ci: build vet fmt-check test race lint fuzz-smoke chaos chaos-serve stream-chaos logs-check e2ebench-check cover bench-json

clean:
	$(GO) clean -testcache
	rm -f coverage.out lint-findings.json lint-findings.sarif
