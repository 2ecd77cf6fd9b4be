GO ?= go

.PHONY: all tier1 ledger-smoke bench-smoke tier2 race stress chaos fuzz-colstore fuzz-codec bench-parity profile-smoke clean

all: tier1

# Tier-1 gate: everything must build, vet clean, and pass tests, the ledger
# module's included. The operators run at GOMAXPROCS 1, 2 and 8 as well: the
# memory budget has to hold at any core count (CI runs the whole suite as
# that matrix).
tier1: ledger-smoke bench-smoke
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	for p in 1 2 8; do GOMAXPROCS=$$p $(GO) test -count=1 ./internal/exec/ || exit 1; done

# The performance ledger (BENCHMARK.json, benchmark/) is a module of its own,
# so `go build ./...` never compiles it and a signature change under
# internal/ can break it unnoticed. It is built first, so such a change fails
# as a compile error and not as a ledger run gone wrong; then its tests run
# every workload at SF 0.01 (~10 s).
ledger-smoke:
	$(GO) build -C benchmark -o /dev/null .
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# The operator and codec microbenchmarks are run by hand (EXPERIMENTS.md
# quotes them); one iteration each keeps them compiling and running.
bench-smoke:
	$(GO) test -run '^$$' -bench 'JoinProbe|JoinBuild|AggMerge|AggPreAgg|ExtSortSpill|ExtSortInMemory|ExprResidual' -benchtime 1x ./internal/exec/
	$(GO) test -run '^$$' -bench 'CompressUnit|DecompressDeflate1' -benchtime 1x ./internal/codec/

# Tier-2 gate: the slow suites tier1 deliberately leaves out — the chaos
# harness (seeded fault schedules under the race detector, including the
# silent-corruption and device-loss scenarios), twenty seconds each of fuzzing
# the chunk decoder and the DEFLATE codec, and the one performance gate whose
# feature no ledger workload sets yet (the spill-integrity tax). Everything
# else is gated by `bash benchmark/run.sh --compare`.
tier2: chaos fuzz-colstore fuzz-codec bench-parity

# Chunk-decoder fuzzing: DecodeChunk reads bytes that came off a device, so
# no input may make it panic or allocate by a header field alone. Tier-1 runs
# FuzzDecodeChunk's seed corpus as a test; this mutates it.
fuzz-colstore:
	$(GO) test ./internal/colstore -run '^$$' -fuzz FuzzDecodeChunk -fuzztime 20s

# DEFLATE codec fuzzing against compress/flate, the oracle: our output decodes
# through it, its output at every level decodes through ours, and no input
# makes Decompress panic or allocate past maxInflateRatio. Tier-1 runs
# FuzzDeflate's seed corpus as a test. Each input costs nine encodes, so the
# minimization of every new input is capped at 200 runs, which leaves the
# twenty seconds to exploring.
fuzz-codec:
	$(GO) test ./internal/codec -run '^$$' -fuzz FuzzDeflate -fuzztime 20s -fuzzminimizetime 200x

# Race-detector pass over the concurrency-heavy packages (morsel workers,
# partition spilling, the sharded aggregation group table against its
# map-based reference at 1, 2 and 8 workers, per-worker stats accumulators,
# span buffers, fault recovery, utilization tracer, the shared I/O
# dispatcher every query's rings and scan readers submit through, and the
# process-wide recycler concurrent queries share). Race builds poison every
# buffer handed back to the recycler, so these runs also catch a reader of
# a released page.
race:
	$(GO) test -race -short ./internal/exec/ ./internal/core/ ./internal/cache/ ./internal/chaos/ ./internal/trace/ ./internal/metrics/ \
		./internal/iosched/ ./internal/uring/ ./internal/colstore/ ./internal/pages/ ./internal/data/

# Multi-query stress gate: concurrent TPC-H mixes through the admission
# governor and per-query spill leases, under the race detector — overlap
# regression, 8-query stress, admission cancel/timeout, catalog races,
# build-then-admit on one context, a governed TraceQuery, governor unit
# races, concurrent queries under injected faults, and the mixed-class
# I/O-scheduler chaos scenario (spill device death plus latency spikes on
# both arrays under an 8-way scan/spill query mix). Each run re-verifies
# that concurrent results stay bit-identical to serial runs and that the
# spill array and governor drain to zero.
stress:
	$(GO) test -race -count=1 -timeout 300s \
		-run 'TestOverlapping|TestConcurrent|TestAdmission|TestCatalog|TestBuildThenRun|TestTraceQueryIsGoverned' .
	$(GO) test -race -count=1 -timeout 300s -run 'TestGovernor' ./internal/pages/
	$(GO) test -race -count=1 -timeout 300s -run 'TestConcurrentQueriesUnderTransientFaults|TestMixedClassLoadUnderDeviceChaos|TestLease' \
		./internal/chaos/ ./internal/nvmesim/

# Observability smoke test: a spilling TPC-H Q9 with the per-operator
# profile tree, the profile/endpoint regression tests, and a /metrics scrape
# of a running `spillyquery -serve` (ephemeral port, address read from its
# stderr) pushed through TestMetricsExposition's parser and golden list.
profile-smoke:
	$(GO) test -run 'TestProfile|TestServeDuringQuery|TestMetricsExposition' -count=1 -v .
	$(GO) run ./cmd/spillyquery -q 9 -sf 0.01 -budget 524288 -profile
	@set -e; tmp=$$(mktemp -d); trap 'kill $$pid 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/spillyquery ./cmd/spillyquery; \
	$$tmp/spillyquery -q 9 -sf 0.01 -budget 524288 -repeat 100000 -serve 127.0.0.1:0 >/dev/null 2>$$tmp/err & pid=$$!; \
	for i in $$(seq 100); do \
		url=$$(sed -n 's|^metrics on \(http://[^ ]*\).*|\1|p' $$tmp/err); \
		if [ -n "$$url" ] && curl -sf "$$url" -o $$tmp/metrics; then break; fi; sleep 0.1; \
	done; \
	$(GO) test -run TestMetricsExposition -count=1 . -args -exposition $$tmp/metrics

# Chaos suite: TPC-H under seeded fault schedules (transient I/O errors,
# latency spikes, device death, spill-capacity exhaustion, cancellation),
# under the race detector. Fault schedules derive from fixed seeds, so a
# failure replays deterministically.
chaos:
	$(GO) test -race -count=1 -v ./internal/chaos/

# Spill-integrity gate: the parity-off-vs-on report on the spill-heavy
# queries, then the self-relative wall-time comparison (no committed
# baseline needed; fails when checksummed+parity spilling costs >10% wall
# time geo-mean or changes any result fingerprint).
bench-parity:
	$(GO) run ./cmd/spillybench -exp parity
	$(GO) run ./cmd/paritycmp

clean:
	$(GO) clean ./...
