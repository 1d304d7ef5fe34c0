# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test check perfbench-check stress stress-mscd cache-determinism cover bench fuzz experiments examples vet-examples opt-goldens clean

all: build test check

build:
	go build ./...

test:
	go test ./...

# Static hygiene + race detector: the gate CI and pre-commit should run.
# The -race pass includes TestVectorizedCorpusWide (width 65536 at every
# worker count), so the chunk pool's claim/commit discipline is
# race-checked at production scale on every gate.
check: vet-examples opt-goldens cache-determinism perfbench-check stress
	go vet ./...
	go build ./cmd/mscd ./cmd/mscload
	go test ./cmd/...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	go test -race ./...

# The repository benchmark is its own module (perfbench/go.mod), so the
# root `go vet ./...` and `go test ./...` never build it. Vet and test it
# here: this runs its self-tests and fails when an internal API it calls
# changes shape.
perfbench-check:
	cd perfbench && go vet ./... && go test ./...

# Robustness stress gate: the deterministic fault-injection matrix
# (compile phases and the artifact cache's filesystem hooks), the
# cancellation/budget/step-limit/leak tests, and the cache recovery and
# single-flight suites, under the race detector, then the live-daemon
# load stage. See docs/ROBUSTNESS.md, docs/CACHE.md and docs/SERVICE.md.
stress: stress-mscd
	go test -race -timeout 5m -run 'Fault|Cancel|Budget|StepLimit|Robust|Degrade|Leak|Concurrent|Service|Cache' ./...

# Artifact-cache determinism gate: compiling the corpus uncached, cold,
# warm, and through a reopened store must produce byte-identical
# artifact fingerprints (docs/CACHE.md).
cache-determinism:
	go test -run 'TestCacheDeterminismGate' .

# Live-service load stage: build both binaries, start mscd (with the
# artifact cache enabled) on an ephemeral port, hammer it with a
# fixed-seed mscload run (zero 5xx, taxonomy expectations enforced by
# mscload's exit code, 30% of requests drawn from the dup pool with the
# server-side cache hit ratio asserted), then SIGTERM and require a
# clean drain (mscd exits 0 only when the drain and the goroutine-leak
# self-check both pass).
stress-mscd:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	go build -o "$$tmp/mscd" ./cmd/mscd; \
	go build -o "$$tmp/mscload" ./cmd/mscload; \
	"$$tmp/mscd" -addr 127.0.0.1:0 -addr-file "$$tmp/addr" -cache-dir "$$tmp/cache" > "$$tmp/mscd.log" 2>&1 & mscd_pid=$$!; \
	for i in $$(seq 1 100); do [ -f "$$tmp/addr" ] && break; sleep 0.1; done; \
	[ -f "$$tmp/addr" ] || { echo "mscd never wrote its address"; cat "$$tmp/mscd.log"; exit 1; }; \
	"$$tmp/mscload" -addr-file "$$tmp/addr" -n 2000 -c 64 -seed 1 -dup 30 -min-hit-ratio 0.25 || \
		{ echo "mscload failed"; cat "$$tmp/mscd.log"; kill $$mscd_pid; exit 1; }; \
	kill -TERM $$mscd_pid; \
	wait $$mscd_pid || { echo "mscd drain was not clean"; cat "$$tmp/mscd.log"; exit 1; }; \
	echo "stress-mscd: ok"

# Run `msc vet` over every MIMDC program in the repo except the seeded
# failure corpus (testdata/vet/bad/). Fails on error-severity findings;
# warnings and infos are allowed.
vet-examples:
	@files=$$(find examples testdata -name '*.mc' -not -path 'testdata/vet/bad/*'); \
	if [ -z "$$files" ]; then echo "no .mc programs found"; exit 1; fi; \
	go run ./cmd/msc vet $$files

# Optimizer structural gate: the per-corpus base-vs-Opt:2 state and
# meta-state table, plus the exact state and cycle counts of the
# benchmark suite and the SIMD width sweep, must match
# testdata/opt/goldens.txt byte for byte, and the Opt:2 build must be
# observationally identical to Opt:0 on the corpus, the workload suite,
# and the fixed progen fleet. Regenerate the table deliberately with
# UPDATE_OPT_GOLDENS=1.
opt-goldens:
	go test -run 'TestOptGoldens|TestOptDifferential' .

cover:
	go test -cover ./...

# Go benchmarks only (wall and alloc numbers; -run '^$' skips the
# tests). The repository benchmark is `bash perfbench/run.sh`.
bench:
	go test -run '^$$' -bench . -benchmem ./...

fuzz:
	go test -fuzz=FuzzParse -fuzztime=60s ./internal/mimdc/
	go test -fuzz=FuzzPromEscape -fuzztime=30s ./internal/telemetry/
	go test -fuzz=FuzzOptDifferential -fuzztime=60s .

# Regenerate EXPERIMENTS.md (all paper artifacts + ablations).
experiments:
	go run ./cmd/mscbench -o EXPERIMENTS.md -header

examples:
	go run ./examples/quickstart
	go run ./examples/interp-vs-msc
	go run ./examples/stencil
	go run ./examples/taskfarm
	go run ./examples/artifacts

clean:
	rm -rf msc-artifacts
