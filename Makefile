# Convenience targets for the sfcmem reproduction.

GO ?= go

.PHONY: all check build test vet bench bench-smoke fuzz-smoke figures figures-quick cover cover-check race lint bench-regression bench-baseline baseline-refresh tune-smoke inline-check clean

all: check

# Full pre-merge gate: compile, vet, unit tests, race detector.
check: build vet test race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench is its own module (it imports this one through a replace
# directive), so ./... does not reach it; vet it too so a removed
# identifier it still uses fails here, not only in CI.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Coverage gate over the library packages: fail when total statement
# coverage drops below COVER_MIN percent.
COVER_MIN ?= 70
cover-check:
	$(GO) test -coverprofile=cover.out ./internal/...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total internal/... coverage: $$total% (minimum $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 >= min+0) ? 0 : 1 }' || \
	  { echo "coverage $$total% is below $(COVER_MIN)%"; exit 1; }

# Static analysis beyond go vet. Skips with a notice when golangci-lint
# is not installed locally; CI always runs it via golangci-lint-action.
lint:
	@if command -v golangci-lint >/dev/null 2>&1; then \
	  golangci-lint run ./...; \
	else \
	  echo "golangci-lint not installed; skipping (CI runs it)"; \
	fi

# Regenerate every paper figure + extension study (tens of minutes).
figures:
	$(GO) run ./cmd/sfcbench -fig 0 -v -out results_full.txt -csv csv

figures-quick:
	$(GO) run ./cmd/sfcbench -fig 0 -quick

bench:
	$(GO) test -bench=. -benchmem ./...

# Compile and single-step every benchmark so they can't silently rot;
# cheap enough to run in CI on every push.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Perf regression gate: run the fast-path benchmarks and compare ns/op
# against the committed baseline with cmd/benchdiff. Fails when a gated
# benchmark regresses past BENCH_THRESHOLD percent. Refresh the
# baseline after an intentional perf change with `make bench-baseline`.
BENCH_GATE ?= FastPathBilatR5|FastPathVolrend|BilateralR5|BitLayout
BENCH_THRESHOLD ?= 15
bench-regression:
	$(GO) test -run='^$$' -bench='$(BENCH_GATE)' -benchtime=3x -count=3 -benchmem . > bench_fresh.txt
	$(GO) run ./cmd/benchdiff -in bench_fresh.txt -out bench_fresh.json \
	  -baseline BENCH_baseline.json -gate '$(BENCH_GATE)' -threshold $(BENCH_THRESHOLD)

bench-baseline:
	$(GO) test -run='^$$' -bench='$(BENCH_GATE)' -benchtime=3x -count=3 -benchmem . > bench_fresh.txt
	$(GO) run ./cmd/benchdiff -in bench_fresh.txt -baseline BENCH_baseline.json -update

# Higher-fidelity baseline regeneration: min of 5 repeats per gated
# benchmark, with a printed diff against the old baseline before it is
# overwritten (the compare step is informational, never failing). CI
# exposes this as a manually-dispatched job; run it locally after an
# intentional perf change and commit the refreshed BENCH_baseline.json.
baseline-refresh:
	$(GO) test -run='^$$' -bench='$(BENCH_GATE)' -benchtime=3x -count=5 -benchmem . > bench_fresh.txt
	@echo "--- diff vs committed baseline ---"
	-$(GO) run ./cmd/benchdiff -in bench_fresh.txt -baseline BENCH_baseline.json \
	  -gate '$(BENCH_GATE)' -threshold $(BENCH_THRESHOLD)
	$(GO) run ./cmd/benchdiff -in bench_fresh.txt -baseline BENCH_baseline.json -update

# CI's autotune smoke: the tiny deterministic interleave search (fixed
# seed, 16³, few generations) must pick the same layout on every run,
# never score more simulated L1 misses than plain Z order, and repeat
# the pinned winners, scores and evaluation logs exactly.
tune-smoke:
	$(GO) test -run 'TestInterleave(Deterministic|BeatsOrMatchesZOrder|Volrend|Pinned)|TestSweepTieBreak' -count=1 -v ./internal/tune

# Inlining guard for the brick codecs: the compiler must report every
# math bit-cast call in brick.go as inlined. When the lanes once stopped
# inlining math.Float32frombits, cold loads ran about 30% slower with
# every test still green (see the note on encodeElems).
INLINE_FILE = internal/volume/brick.go
INLINE_CALLS = math.Float32bits math.Float32frombits math.Float64bits math.Float64frombits
inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/volume 2>&1) || { echo "$$out"; exit 1; }; \
	fail=0; \
	for fn in $(INLINE_CALLS); do \
	  want=$$(grep -n "$$fn(" $(INLINE_FILE) | cut -d: -f1 | sort -u | tr '\n' ' '); \
	  got=$$(echo "$$out" | grep "brick.go:[0-9]*:[0-9]*: inlining call to $$fn$$" | cut -d: -f2 | sort -u | tr '\n' ' '); \
	  if [ -z "$$want" ] || [ "$$want" != "$$got" ]; then \
	    echo "inline-check: $$fn is called on lines [ $$want] of $(INLINE_FILE) but inlined on [ $$got]"; fail=1; \
	  fi; \
	done; \
	[ $$fail = 0 ] && echo "inline-check: every math bit cast in $(INLINE_FILE) is inlined"

# Short bursts of the native fuzz targets (Go allows one -fuzz pattern
# per invocation, so the curves run back to back).
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzZOrderRoundTrip -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzHilbertRoundTrip -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzStepRoundTrip -fuzztime=$(FUZZTIME) ./internal/morton
	$(GO) test -run='^$$' -fuzz=FuzzBitLayoutRoundTrip -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzManifestRoundTrip -fuzztime=$(FUZZTIME) ./internal/volume
	$(GO) test -run='^$$' -fuzz=FuzzBrickHeaderRoundTrip -fuzztime=$(FUZZTIME) ./internal/volume
	$(GO) test -run='^$$' -fuzz=FuzzLoadRaw -fuzztime=$(FUZZTIME) ./internal/volume
	$(GO) test -run='^$$' -fuzz=FuzzOpenManifest -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzAccelExact -fuzztime=$(FUZZTIME) ./internal/render
	$(GO) test -run='^$$' -fuzz=FuzzSimulatorMatchesReference -fuzztime=$(FUZZTIME) ./internal/cache
	$(GO) test -run='^$$' -fuzz=FuzzUploadVolume -fuzztime=$(FUZZTIME) ./cmd/sfcserved
	$(GO) test -run='^$$' -fuzz=FuzzCreateJob -fuzztime=$(FUZZTIME) ./cmd/sfcserved
	$(GO) test -run='^$$' -fuzz=FuzzKernelRequest -fuzztime=$(FUZZTIME) ./cmd/sfcserved
	$(GO) test -run='^$$' -fuzz=FuzzTuneRequest -fuzztime=$(FUZZTIME) ./cmd/sfcserved

clean:
	rm -rf csv frames lod test_output.txt bench_output.txt bench_fresh.txt bench_fresh.json cover.out
