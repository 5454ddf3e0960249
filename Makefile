GO ?= go
GOFMT ?= gofmt

.PHONY: build test vet fmt fmt-check lint vulncheck fuzz-smoke race cover verify bench bench-guarded experiments docs-check clean

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
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseOptions -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzReadHeader -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzChunkFrames -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzCacheOptions -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzPathOptions -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzPatternKernel -fuzztime 10s ./internal/depot/

# The data path is lock-free by design; prove it under the race
# detector where the concurrency lives — the buffer pool and the
# emulated pipes that recycle its buffers included.
race:
	$(GO) test -race ./internal/obs/... ./internal/depot/... ./internal/cache/... ./internal/lsl/... ./internal/core/... ./internal/ctl/... ./internal/schedule/... ./internal/emu/... ./internal/bufpool/...

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

# The guarded benchmark set behind CI's perf-regression gate: repeated
# runs of the hot-path benchmarks, appended to $(BENCH_OUT) for
# benchstat and cmd/benchgate to compare across commits. Fixed
# -benchtime iteration counts keep base and head doing identical work.
# BenchmarkRelayTCP* cross real loopback sockets through one depot: the
# plain and small rungs take the kernel relay, the armed one the pump.
# BenchmarkPattern, BenchmarkCachePopulate and BenchmarkEmuConn hold the
# in-process engine's content path: generate, check, cache, emulate.
BENCH_COUNT ?= 6
BENCH_OUT ?= bench.txt
bench-guarded:
	: > $(BENCH_OUT)
	$(GO) test -run '^$$' -bench 'BenchmarkPump$$|BenchmarkPumpChecksum$$|BenchmarkFairShare$$' -benchtime 100x -count $(BENCH_COUNT) ./internal/depot/ | tee -a $(BENCH_OUT)
	$(GO) test -run '^$$' -bench 'BenchmarkRelayTCP$$' -benchtime 100x -count $(BENCH_COUNT) ./internal/depot/ | tee -a $(BENCH_OUT)
	$(GO) test -run '^$$' -bench 'BenchmarkRelayTCPSmall$$' -benchtime 2000x -count $(BENCH_COUNT) ./internal/depot/ | tee -a $(BENCH_OUT)
	$(GO) test -run '^$$' -bench 'BenchmarkPattern$$' -benchtime 1000x -count $(BENCH_COUNT) ./internal/depot/ | tee -a $(BENCH_OUT)
	$(GO) test -run '^$$' -bench 'BenchmarkCachePopulate$$' -benchtime 100x -count $(BENCH_COUNT) ./internal/depot/ | tee -a $(BENCH_OUT)
	$(GO) test -run '^$$' -bench 'BenchmarkEmuConn$$' -benchtime 500x -count $(BENCH_COUNT) ./internal/emu/ | tee -a $(BENCH_OUT)
	$(GO) test -run '^$$' -bench 'BenchmarkEmit$$' -count $(BENCH_COUNT) ./internal/obs/ | tee -a $(BENCH_OUT)
	$(GO) test -run '^$$' -bench 'BenchmarkStriping$$|BenchmarkMultipath$$' -benchtime 1x -count $(BENCH_COUNT) . | tee -a $(BENCH_OUT)

# Regenerate the canonical experiment log that EXPERIMENTS.md quotes
# (seed 1, paper iteration counts). Rerun after changing anything under
# internal/experiments, then re-check the numbers quoted per figure in
# EXPERIMENTS.md against the fresh experiments_output.txt.
experiments:
	$(GO) run ./cmd/lsl-exp -iterations 10 -measurements 20000 all > experiments_output.txt

# The documentation gates alone: godoc coverage of the protocol-facing
# packages and markdown link resolution (also run by CI's docs job).
docs-check:
	$(GO) test ./internal/docs/

clean:
	$(GO) clean ./...
