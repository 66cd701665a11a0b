GO ?= go

.PHONY: build test check check-noanalyze race lint analyze crash-recovery checkpoint-chaos incident-chaos race-pipeline federation columnar-oracle perfbench-selftest bench bench-smoke demo demo-lossy

build:
	$(GO) build ./...

# -shuffle=on randomizes test execution order within each package so
# order-dependent tests (shared globals, leftover registry state) fail
# loudly instead of passing by accident.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# check is the pre-merge gate: lint, the bsvet static-analysis suite,
# the flow-archive crash-recovery scenario, the daemon
# checkpoint-chaos scenario, the sharded-pipeline race scenario, the
# multi-vantage federation gate, the columnar-vs-row differential
# oracle, the perfbench self-test, plus the full suite under the race
# detector.
check: lint analyze crash-recovery checkpoint-chaos incident-chaos race-pipeline federation columnar-oracle perfbench-selftest
	$(GO) vet ./...
	$(GO) test -race -shuffle=on ./...

# check-noanalyze is the CI split of check: everything except the
# bsvet suite, which check.yml runs as its own parallel job with its
# own build cache and a diagnostics artifact on failure. Local runs
# should use plain `make check`.
check-noanalyze: lint crash-recovery checkpoint-chaos incident-chaos race-pipeline federation columnar-oracle perfbench-selftest
	$(GO) vet ./...
	$(GO) test -race -shuffle=on ./...

# columnar-oracle pins the columnar block reader and writer to the row
# oracles kept as test code: pushed-down filtering must select exactly
# the rows the test-side row decoder keeps, the store's scans must
# return exactly the records (and accounting) of the test-side row
# scanner, and a full scan→classify replay must be byte-identical to
# the same analyses run over the in-memory records the archive was
# written from; on the write side, the column block encoder's frames
# and whole segment files must be byte-equal to the test-side row
# encoder's — under the race detector with shuffled order, test cache
# defeated so the gate always runs.
columnar-oracle:
	$(GO) test -race -shuffle=on ./internal/flowstore -run 'TestPushdownMatchesRowFilter|TestRowDecodeOracleEquivalence|TestV1ArchiveCompat|TestScanStatsColumnsDecoded|TestBlockEncoderMatchesRowOracle|TestSegmentFilesMatchRowOracle' -count=1
	$(GO) test -race -shuffle=on ./internal/core -run 'TestColumnarMatchesRow' -count=1
	$(GO) test -race -shuffle=on ./internal/pipe -run 'TestFanOutColumnar|TestColsBatchLazyMaterialization' -count=1

# perfbench-selftest vets and tests the benchmark harness. perfbench is
# its own module, so `go build ./...` at the root never compiles it; this
# gate makes a program API change that breaks the benchmark fail here
# instead of silently (-count=1 defeats the test cache).
perfbench-selftest:
	cd perfbench && $(GO) vet ./... && $(GO) test ./... -count=1

# analyze runs booterscope's repo-invariant static-analysis suite
# (cmd/bsvet): determinism (no wall-clock or global-rand reads in
# simulation packages), batchownership (no use of a pipe.Batch after
# hand-off), telemetry (registry registration, metric-name prefixes,
# label-cardinality caps), lockdiscipline (//bsvet:guards mutex
# invariants), goroutinelifecycle (every goroutine in a long-running
# package has a shutdown path), and hotpath (//bsvet:hotpath functions
# stay allocation-free per -gcflags=-m=2, modulo the checked-in
# budget). Diagnostics come out in the standard vet file:line:col
# format and any finding fails the build.
analyze:
	$(GO) run ./cmd/bsvet -hotpath.budget analysis/hotpath_budget.json -timings ./...

# race-pipeline drives the fan-out/merge machinery and the sharded
# classifier under the race detector with the test cache defeated, so
# the gate always exercises the cross-goroutine batch handoff.
race-pipeline:
	$(GO) test -race ./internal/pipe ./internal/classify -run 'TestFanOut|TestRun|TestSharded' -count=1

# federation drives the multi-vantage query plane under the race
# detector with shuffled test order: the federated scan must stay
# byte-identical to the single-union-store scan, and the cross-vantage
# correlation report must be reproducible across coordinators
# (-count=1 defeats the test cache so the gate always runs the merge).
federation:
	$(GO) test -race -shuffle=on ./internal/federation -count=1
	$(GO) test -race ./internal/core -run 'TestFederated' -count=1

# bench writes the machine-readable artifacts consumed by the PR
# gates: BENCH_7.json (flight-recorder on/off overhead, < 2%),
# BENCH_8.json (federated 3-store scan vs the single union store), and
# BENCH_9.json (columnar hot path; the artifact test fails unless the
# columnar rate clears 2x the frozen BENCH_4 baseline). BENCH_4.json is
# that frozen row-pipeline baseline and is never rewritten: the legacy
# serial replay vs batch pipeline comparison (pipeline >= 2x legacy,
# one run over one reader) writes to the untracked
# .bench_build/BENCH_4.json.
bench:
	mkdir -p $(CURDIR)/.bench_build
	BENCH_OUT=$(CURDIR)/.bench_build/BENCH_4.json $(GO) test ./internal/core -run TestWriteBenchArtifact -count=1 -v
	BENCH_EVENTLOG_OUT=$(CURDIR)/BENCH_7.json $(GO) test ./internal/core -run TestWriteEventlogBenchArtifact -count=1 -v
	BENCH_FEDERATION_OUT=$(CURDIR)/BENCH_8.json $(GO) test ./internal/core -run TestWriteFederationBenchArtifact -count=1 -v
	BENCH_COLUMNAR_OUT=$(CURDIR)/BENCH_9.json $(GO) test ./internal/core -run TestWriteColumnarBenchArtifact -count=1 -v -timeout 30m

# bench-smoke compiles and runs the hot-path benchmarks for one short
# iteration — no timing claims, just proof the decode/scan/classify
# benchmark paths still build and execute, so the hot path cannot
# silently stop compiling (the full `make bench` run is manual).
bench-smoke:
	$(GO) test ./internal/core -run xxx -bench 'BenchmarkColumnarAnalyze|BenchmarkPipelineAnalyze' -benchtime 1x -count=1
	$(GO) test ./internal/flowstore -run xxx -bench . -benchtime 1x -count=1

# incident-chaos kills the flight recorder's dump writer at every
# write/fsync/rename offset and reloads: each crash must leave either
# the previous complete dump or none — never a torn file (-count=1
# defeats the test cache so the gate always runs the crash matrix).
incident-chaos:
	$(GO) test ./internal/telemetry/eventlog -run TestDumpCrashAtEveryWriteOffset -count=1

# checkpoint-chaos kills the detection daemon's snapshot writer at
# every write offset and restarts it: the previous snapshot must be
# adopted, the flow archive replayed past its durability watermark,
# and the result must match a never-restarted daemon byte-identically
# (-count=1 defeats the test cache so the gate always runs the crash
# matrix).
checkpoint-chaos:
	$(GO) test ./internal/service -run 'TestCheckpointRestoreMatchesUninterrupted|TestCheckpointCrashAtEveryWriteOffset' -count=1

# crash-recovery replays the torn-segment scenario end to end: injected
# write faults, a manually torn tail, and a reopen that must adopt every
# intact record with exact accounting. It also corrupts a sealed
# segment, which every scan must reject, and feeds Open invalid
# manifests, which it must refuse (-count=1 defeats the test cache so
# the gate always exercises the filesystem).
crash-recovery:
	$(GO) test ./internal/flowstore -run 'TestCrashRecovery|TestDeterministicLayout|TestScanRejectsCorruptSealedFrame|TestOpenRejectsInvalidManifest|FuzzLoadManifest' -count=1

# lint enforces formatting. The telemetry-registration rule that used
# to live in scripts/lint-telemetry.sh is now the type-aware telemetry
# analyzer in `make analyze`.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

demo:
	$(GO) run ./cmd/collector -demo -listen 127.0.0.1:0

# demo-lossy routes the demo traffic through the chaos proxy and prints
# the fault ledger next to the collector's loss accounting.
demo-lossy:
	$(GO) run ./cmd/collector -demo -listen 127.0.0.1:0 -loss 0.05 -reorder 0.01
