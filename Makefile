GO ?= go

.PHONY: ci build vet test race fmt-check bench difftest serve-test durable-test lint bench-smoke repair-test stream-test replica-test examples

ci: fmt-check lint build race difftest serve-test durable-test repair-test bench-smoke stream-test replica-test examples

# The static-analysis gate: go vet plus the repository's own analyzer
# suite (immutable, errwrap, ctxloop, obssafe, cursorclose, and the CFG
# dataflow trio locksafe/leakcheck/snapshotescape — see docs/analysis.md).
# The suite has no suppression mechanism; the tree must be clean modulo
# the committed baseline (currently empty), and the whole run must stay
# inside a 60s wall-clock budget so `make ci` stays fast.
lint: vet
	@start=$$(date +%s); \
	$(GO) run ./cmd/lb-lint -baseline lint-baseline.json ./... || exit 1; \
	end=$$(date +%s); elapsed=$$((end - start)); \
	echo "lint: analyzer suite took $${elapsed}s (budget 60s)"; \
	if [ $$elapsed -ge 60 ]; then \
		echo "lint: exceeded the 60s wall-clock budget; profile with 'go run ./cmd/lb-lint -list -v'"; exit 1; \
	fi

# The differential harness: generated programs evaluated by the LFTJ
# engine (every candidate order, plan cache cold and warm) and by all
# IVM modes must match a naive reference evaluator, race-detector on.
difftest:
	$(GO) test -race -run 'Differential' -count=1 ./internal/engine/

# The durability suite: framed-snapshot and journal unit tests, the
# crash-recovery property test (every fault-injected crash point must
# recover exactly the acknowledged commits), and the faultfs
# crash-simulation filesystem's own semantics — race-detector on.
durable-test:
	$(GO) vet ./internal/durable/...
	$(GO) test -race -count=1 ./internal/durable/...

# The HTTP end-to-end suite (httptest): concurrent conflicting writers,
# deadline propagation into the fixpoint, error mapping, drain, pool
# rejection, panic recovery, save/load over the wire — race-detector on.
serve-test:
	$(GO) test -race -count=1 ./internal/server/

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# -count=1 on the replica/failover and server suites: the race detector
# only sees schedules it executes, so cached passes are worthless there.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=1 ./internal/replica/ ./internal/server/

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The transaction-repair suite: the repair differential harness (repaired
# heads must be byte-identical to serial re-execution over generated
# programs and conflict schedules) plus the server-level disjoint-writer
# race and the repair-vs-coarse contention benchmark — race-detector on.
repair-test:
	$(GO) test -race -run 'TestRepair|TestServerRepairDisjointWriters|TestContentionRepairVsCoarse' -count=1 ./internal/engine/ ./internal/server/

# The streaming-query suite, pull cursor to wire: LFTJ iterator parity
# and early close, engine/core cursor equivalence with the materialized
# path, NDJSON framing and trailing summary, pagination exactly-once
# against a pinned snapshot, disconnect releasing the worker slot, and
# the constant-memory assertion (STREAM_MEM_N rows; see EXPERIMENTS.md
# for the recorded 1M-row run) — race-detector on.
stream-test:
	$(GO) test -race -run 'TestIter|TestStreamRule|TestQueryStream|TestQueryPagination|TestQueryCursorErrors|TestQueryDefaultLimit|TestQueryMaxResultBytes|TestStreamDisconnectReleasesWorker|TestV1Aliases|TestAppendRowJSON|TestStreamConstantMemory|TestBenchStream' -count=1 ./internal/lftj/ ./internal/engine/ ./internal/core/ ./internal/server/ ./internal/bench/

# The replication suite: tail-frame codec and torn-final-frame sweep,
# journal tail cursor and truncation coordination, follower unit tests
# against a scripted fake primary (torn frames, 410 resync, backoff),
# the primary + two followers end-to-end suite (exactly-once replay,
# lag-aware health, stale-read 503, resync past a paused follower),
# drain-ends-tail-streams, bench replica routing, and the warm-standby
# failover property test (primary killed at every fault-injected crash
# point; the promoted follower must hold exactly the acked commits) —
# race-detector on. See docs/replication.md.
replica-test:
	$(GO) test -race -run 'TestTail|TestWaitSeq|TestFollower|TestReplication|TestPromote|TestAutoPromote|TestDrainEndsTailStreams|TestFailoverEveryCrashPoint|TestBenchReplicaRouting' -count=1 ./internal/durable/ ./internal/replica/ ./internal/server/ ./internal/bench/

bench:
	$(GO) test -bench=. -benchmem ./...

# Every runnable scenario under examples/, end to end: each main must
# exit zero. Examples have no tests of their own, so this is what
# catches one that no longer runs (for instance a load order that
# violates a constraint).
examples:
	@for d in examples/*/; do \
		echo "examples: $$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# The load-harness smoke: a fixed-seed lb-bench run against an
# in-process server (deterministic op sequence, hot-key contention,
# branch fan-out) asserting a well-formed report, zero 5xx, non-zero
# per-endpoint percentiles, and optimistic conflict/retry evidence —
# race-detector on. See docs/bench.md.
bench-smoke:
	$(GO) test -race -run 'TestBenchSmoke|TestGenOpsDeterministic' -count=1 ./internal/bench/
