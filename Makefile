GO ?= go
GOFMT ?= gofmt

.PHONY: build test vet fmt fmt-check lint vulncheck fuzz-smoke race stress cover verify bench bench-guarded bench-gate experiments docs-check clean

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

fmt:
	$(GOFMT) -w .

# Fails (and prints the offenders) when any file needs gofmt — the CI
# formatting gate.
fmt-check:
	@out="$$($(GOFMT) -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Static analysis beyond vet. Uses a staticcheck binary when one is on
# PATH; otherwise runs it through the module cache (needs network the
# first time — CI installs it, offline dev boxes can skip lint).
STATICCHECK_VERSION ?= 2025.1.1
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	fi

# Known-vulnerability scan of the code paths the binaries reach. Uses
# a govulncheck binary when one is on PATH (CI installs it); otherwise
# runs it through the module cache (needs network the first time).
GOVULNCHECK_VERSION ?= latest
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...; \
	fi

# Short fuzzing bursts over the wire-format parsers and the pattern
# kernel: enough to catch a freshly introduced panic, round-trip break
# or departure from the byte-loop reference without burning minutes.
# FuzzChunkFrames is the differential fuzz of the in-place frame
# scanner — the one place a checksummed frame is parsed and verified —
# against its byte-at-a-time reference.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseOptions -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzReadHeader -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzChunkFrames -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzCacheOptions -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzPathOptions -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzPatternKernel -fuzztime 10s ./internal/depot/
	$(GO) test -run '^$$' -fuzz FuzzStatusRecord -fuzztime 10s ./internal/wire/

# The data path is lock-free by design; prove it under the race
# detector where the concurrency lives — the buffer pool and the
# emulated pipes that recycle its buffers, the frame scanner every
# checksummed pump reads through and the fair-share gate every
# scheduled pump writes through included. The framed-session pump tests
# (TestPumpQueueFramedSessionBound, TestPumpReturnsItsBuffers,
# TestTappedSession*, TestFairShareWholeFrames) run here with the rest
# of ./internal/depot/. The planner builds its per-source trees on
# parallel workers (TestParallelReplanMatchesSerial), so the control
# plane's nws, graph, schedule and ctl run here too. lsl-xfer's loopback
# tests run the one sender engine over real TCP and status queries.
race:
	$(GO) test -race ./internal/obs/... ./internal/depot/... ./internal/cache/... ./internal/lsl/... ./internal/core/... ./internal/ctl/... ./internal/schedule/... ./internal/nws/... ./internal/graph/... ./internal/emu/... ./internal/bufpool/... ./internal/wire/... ./internal/fairshare/... ./cmd/lsl-xfer/

# The late-byte class of bug under the race detector, many times over:
# multipath transfers whose stolen ranges land after the transfer
# returned (TestMultipathDigestMismatchFails: a verdict the duplicate
# of a stolen range raced), the sink's record table, tombstones and
# budgets, and its status answers (TestStatusQuery). A record leaked by
# a late range fails here instead of flaking tier-1.
stress:
	$(GO) test -race -count=50 -run 'TestMultipath|TestSink|TestStatusQuery' ./internal/core/ ./internal/depot/

# Statement-coverage floors for the packages whose untested branches
# hurt the most (see coverage-floors.txt for which and why). The
# profile covers exactly the floored packages; cmd/covercheck fails on
# any floor breach or floored package missing from the profile.
COVER_OUT ?= cover.out
cover:
	$(GO) test -coverprofile $(COVER_OUT) -covermode atomic ./internal/wire/ ./internal/cache/ ./internal/schedule/ ./internal/core/
	$(GO) run ./cmd/covercheck -profile $(COVER_OUT) -floors coverage-floors.txt

# The full pre-commit gate.
verify: fmt-check build vet test race

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# The guarded benchmark set behind CI's perf-regression gate
# (bench/guarded.txt says which benchmarks and why): repeated runs of
# the hot-path benchmarks of this checkout, appended to $(BENCH_OUT)
# for benchstat to read.
BENCH_COUNT ?= 6
BENCH_OUT ?= bench.txt
bench-guarded:
	: > $(BENCH_OUT)
	sed 's/#.*//' bench/guarded.txt | while read -r pkg re bt; do \
		[ -n "$$pkg" ] || continue; \
		$(GO) test -run '^$$' -bench "$$re" $${bt:+-benchtime $$bt} -count $(BENCH_COUNT) $$pkg | tee -a $(BENCH_OUT); \
	done

# The gate itself: the same set sampled at this checkout and at the
# checkout in BASE, base and head runs interleaved so that the
# machine's drift falls on both, then compared (cmd/benchgate). Leaves
# base.txt, head.txt and $(BENCH_JSON).
BENCH_JSON ?= bench.json
bench-gate:
	$(GO) run ./cmd/benchgate -base-dir $(BASE) -count $(BENCH_COUNT) -threshold 0.10 -json $(BENCH_JSON)

# The exact-output check of the simulated-time experiments: every
# internal/experiments registry entry that `lsl-exp all` runs and that
# does not run over the emulated stack, at seed 1 and the default
# parameters, compared byte for byte with
# internal/experiments/testdata/experiments.golden (about a CPU-minute).
# When a change is meant to move a number, regenerate the golden and
# review its diff in the change:
#   go test -tags golden ./internal/experiments -run TestGolden -update
experiments:
	$(GO) test -tags golden -count=1 -run '^TestGolden$$' ./internal/experiments

# The documentation gates alone: godoc coverage of the protocol-facing
# packages and markdown link resolution (also run by CI's docs job).
docs-check:
	$(GO) test ./internal/docs/

clean:
	$(GO) clean ./...
