GO ?= go
CRASH_SEED ?= 1

# Pinned companion linter versions (single source of truth; CI installs
# them via lint-tools). shiftsplitvet itself is built from this tree and
# needs no install; staticcheck and govulncheck are skipped with a notice
# when the binary is absent, so `make lint` also works offline.
STATICCHECK_VERSION ?= 2023.1.7
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: all build test race vet lint lint-json lint-fix-check lint-tools fmt-check crash-campaign chaos-smoke bench-smoke bench-ingest-smoke ci clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fail if any file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The repo's own invariant suite (journal bypasses, dropped storage
# errors, escaping pooled scratch, map-ordered float sums, unlocked
# durable stores), then the pinned external linters when present.
lint:
	$(GO) run ./cmd/shiftsplitvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck $(STATICCHECK_VERSION) not on PATH; skipping (make lint-tools installs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck $(GOVULNCHECK_VERSION) not on PATH; skipping (make lint-tools installs it)"; \
	fi

# Machine-readable vet run: the full finding list lands in
# shiftsplitvet.json (CI archives it as an artifact). The target fails
# only on load errors (exit 2) so the artifact is produced even when
# findings exist; lint-fix-check is the gate.
lint-json:
	@$(GO) run ./cmd/shiftsplitvet -json ./... > shiftsplitvet.json; \
	status=$$?; \
	if [ $$status -ge 2 ]; then cat shiftsplitvet.json; exit $$status; fi; \
	count=$$(grep -o '"count": [0-9]*' shiftsplitvet.json | grep -o '[0-9]*'); \
	echo "lint-json: wrote shiftsplitvet.json ($$count finding(s))"

# Guard: the tree stays diagnostic-clean — every shiftsplitvet finding is
# either fixed or explicitly suppressed with //shiftsplitvet:ignore.
lint-fix-check:
	@$(GO) run ./cmd/shiftsplitvet -json ./... > shiftsplitvet.json; \
	status=$$?; \
	if [ $$status -eq 1 ]; then \
		echo "lint-fix-check: tree is not diagnostic-clean (fix the findings or suppress with //shiftsplitvet:ignore <analyzer> -- reason):"; \
		cat shiftsplitvet.json; \
		exit 1; \
	elif [ $$status -ge 2 ]; then \
		cat shiftsplitvet.json; exit $$status; \
	fi; \
	echo "lint-fix-check: clean"

# Install the pinned external linters (needs network; CI runs this).
lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# The crash campaigns kill maintenance batches at every physical write
# index and require recovery to a checksum-clean pre- or post-batch state.
# CRASH_SEED pins the tear/drop RNG for reproducible failures.
crash-campaign:
	SHIFTSPLIT_CRASH_SEED=$(CRASH_SEED) $(GO) test -v \
		-run 'TestCrashCampaignDurable|TestCrashCampaignMappedStore|TestCrashCampaignBatchedCommit|TestAppenderCrashDuringAppendIsAtomic|TestStoreCrashCampaign|TestGroupCommitCrash|TestEpochFlipCrashCampaign' \
		./internal/storage/ ./internal/appender/ .

# The chaos harness drives a real HTTP serving process through a
# healthy → faulted → recovered arc (EIO, latency, silent bit rot on the
# medium and in flight) and asserts the robustness contract: answers are
# never silently wrong, every rotted block is quarantined, and the store
# converges back to healthy. Runs under -race: it is as much a
# concurrency test as a fault test.
chaos-smoke:
	$(GO) test -race -run 'TestChaosSmoke' -v ./internal/chaos/

# A quick pass over the maintenance benchmarks (worker-count sweeps for
# the chunked transforms and the appender) with -benchmem, so CI catches
# per-coefficient allocation regressions in the flat kernels and gross
# slowdowns without a full benchmark run. BENCH_maintain.json records a
# longer baseline. TestAllocBudget is the hard allocation gate: it fails
# outright when ChunkedStandard/ChunkedNonStandard allocs/op drift >20%
# past the budgets recorded in BENCH_maintain.json. The bench-serve
# -maintain row is the MVCC serve-during-maintenance check: query p99 with
# epoch flips (a fixed 50/s) racing the load must stay within the guardrail
# multiple of the idle p99 (BENCH_serve.json records 1.28x; the 3x gate is
# loose so CI catches a lost snapshot path, not scheduler jitter).
# BenchmarkVersionedCommit times a one-block epoch flip at the 256² and
# 1024² block counts; TestVersionedCommitAllocsSizeIndependent fails when
# the flip's allocations stop being independent of the store size.
# TestSnapshotQueryAllocs is the query path's allocation gate: a pinned
# point or range sum on a warm durable, versioned serving stack must make
# at most 4 allocs/op; BenchmarkSnapshot{Point,RangeSum}Warm time the same
# calls (BENCH_serve.json records a baseline).
bench-smoke:
	$(GO) test -run 'TestAllocBudget' -count=1 -v ./internal/transform/
	$(GO) test -run 'TestSnapshotQueryAllocs' -count=1 -v .
	$(GO) test -run '^$$' -bench 'BenchmarkSnapshotPointWarm|BenchmarkSnapshotRangeSumWarm' \
		-benchmem -benchtime 2000x .
	$(GO) test -run '^$$' -bench 'BenchmarkChunkedStandard|BenchmarkChunkedNonStandard' \
		-benchmem -benchtime 3x ./internal/transform/
	$(GO) test -run '^$$' -bench 'BenchmarkAppender$$' -benchmem -benchtime 3x ./internal/appender/
	$(GO) test -run '^$$' -bench 'BenchmarkFileStoreRead|BenchmarkFileStoreWrite' \
		-benchmem -benchtime 3x ./internal/storage/
	$(GO) test -run '^$$' -bench 'BenchmarkMappedStoreRead|BenchmarkMappedVsFileWarmRead' \
		-benchmem -benchtime 3x ./internal/storage/
	$(GO) test -run '^$$' -bench 'BenchmarkTileFlush' -benchmem -benchtime 3x ./internal/tile/
	$(GO) test -run 'TestVersionedCommitAllocsSizeIndependent' -count=1 -v ./internal/storage/
	$(GO) test -run '^$$' -bench 'BenchmarkVersionedCommit' -benchmem -benchtime 100x ./internal/storage/
	$(GO) run ./cmd/shiftsplit bench-serve -maintain -clients 4 -duration 700ms -cache 512 -max-p99-ratio 3

# A short write-path run that must show group commit actually amortizing:
# several client append calls per journal group (fsync pair). The threshold
# is deliberately below the BENCH_ingest.json baseline (~14x with 16
# clients) so CI catches a lost amortization, not scheduler jitter.
bench-ingest-smoke:
	$(GO) run ./cmd/shiftsplit bench-ingest -clients 8 -duration 500ms -min-amortization 2

ci: fmt-check vet lint lint-fix-check build race crash-campaign chaos-smoke bench-ingest-smoke

clean:
	$(GO) clean ./...
