GO ?= go

.PHONY: all build test test-short race alloc-pins vet fmt-check fmt test-links no-pin no-task-sleep no-queue-regrow no-stack-identity no-wall-clock-model cross-build bench bench-smoke bench-selftest bench-pairs loc fuzz-smoke examples-run obs-smoke transport-smoke ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# One race gate. Every package with tests runs under the race detector; the
# packages whose own code or tests run goroutines side by side in one process
# run again with one P, where a waiter that yields instead of parking, or a
# poller and the reader contending for one drain lock, show schedules a
# multi-core host never produces by itself (xproc's ranks are processes:
# its one race-enabled run is the first leg's, and transport-smoke runs them
# with one P); and the tests that once caught a race, the shm close under a
# flood, and the round trips that take no injection record (retired by
# whichever goroutine harvests the reply, with no sentinel count to order it)
# run twenty times, since a race shows only in the runs that interleave.
race:
	$(GO) test -race ./...
	GOMAXPROCS=1 $(GO) test -race -count=1 . ./internal/core ./internal/task ./internal/gasnet ./internal/dht ./internal/mpi ./internal/obs
	$(GO) test -race -count=20 -run 'CholV1Device|RPCArgumentAcrossStackGrowth|InjectOrderPerGoroutine|ShmCloseUnderFlood|RPCMixedStreamFIFO|^TestQuiesce$$' ./internal/sparse ./internal/core ./internal/gasnet

# Allocation pins (testing.AllocsPerRun; they skip themselves under -race):
# heap objects per operation in core, per AM in gasnet, per decoded aux
# token, per park, and per rpc_ff as a downstream package pays it (the
# external test: generic entry points instantiated outside package upcxx).
# Once as the host schedules it and once with one P, the configuration the
# committed benchmark measures.
alloc-pins:
	$(GO) test -count=1 -run 'AllocPins|Allocs' . ./internal/...
	GOMAXPROCS=1 $(GO) test -count=1 -run 'AllocPins|Allocs' . ./internal/...

# Short fuzz windows over every fuzz target under internal/ (the seed
# corpora also run as plain tests in every `make test`). The targets come
# from `go test -list`, package by package, so a new target is fuzzed
# without being named here and a deleted one is not asked for; a package
# whose *fuzz_test.go lists no target (a renamed func, a build tag) fails
# the run instead of silently going unfuzzed.
fuzz-smoke:
	@set -e; $(GO) list -f '{{.ImportPath}} {{.Dir}}' ./internal/... | while read pkg dir; do \
		targets=$$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); \
		if [ -z "$$targets" ] && ls $$dir/*fuzz_test.go >/dev/null 2>&1; then \
			echo "fuzz-smoke: $$pkg has a fuzz test file but lists no Fuzz target"; exit 1; \
		fi; \
		for t in $$targets; do \
			echo "== $$pkg $$t"; \
			$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime 10s $$pkg; \
		done; \
	done

# Execute every example end to end at its built-in small scale — examples
# are run, not just vetted (each finishes in roughly a second on the
# zero-delay conduit).
examples-run:
	@set -e; for d in examples/*/; do \
		echo "== go run ./$$d"; \
		$(GO) run ./$$d; \
	done

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

fmt:
	gofmt -w .

# The conduit's reader/writer goroutines and the progress thread are
# ordinary goroutines: pinning one to an OS thread makes every frame pay a
# thread wake-up and a P hand-off (DESIGN.md §14). Keep it that way.
no-pin:
	@if grep -rn LockOSThread *.go internal/; then \
		echo "no-pin: runtime goroutines must not be pinned to OS threads"; exit 1; \
	fi

# A worker or helper of the task runtime waits by the rank's idle rule
# (ProgressWait): whatever hands it work rings the doorbell it parks on. A
# time.Sleep cannot be woken, so every hand-off behind it waits the sleep out.
no-task-sleep:
	@if grep -n 'time\.Sleep' task.go steal.go; then \
		echo "no-task-sleep: the task runtime idles through Rank.ProgressWait, never time.Sleep"; exit 1; \
	fi

# The runtime's queues (Endpoint.compQ/amQ) are drained by swapping in a
# spare buffer; resetting one to nil makes every pass regrow it from
# nothing — a heap object per operation again.
no-queue-regrow:
	@if grep -rnE '(compQ|amQ) = nil' --include='*.go' --exclude='*_test.go' internal/; then \
		echo "no-queue-regrow: drain queues by swapping buffers (see PollCompletions, PollAMs)"; exit 1; \
	fi

# Goroutine identity is one load from the runtime's g (goid.go): runtime.Stack
# is that file's calibration oracle and fallback, and no other runtime code
# derives identity from a traceback.
no-stack-identity:
	@if git grep -n --untracked 'runtime\.Stack' -- ':(glob)*.go' 'internal/*.go' ':!*_test.go' | grep -v '^goid\.go:'; then \
		echo "no-stack-identity: goroutine identity comes from curGID (goid.go), not runtime.Stack"; exit 1; \
	fi

# The LogGP conduit and the event core run in model time (DESIGN §5): nothing
# there starts a goroutine, spins, sleeps or reads the wall clock.
no-wall-clock-model:
	@if grep -nE '\bgo (func|[a-zA-Z.]+\()|time\.(Now|Since|Until|Sleep|After)|Gosched' internal/gasnet/loggp.go internal/gasnet/sim.go; then \
		echo "no-wall-clock-model: the LogGP conduit keeps model time only"; exit 1; \
	fi

# The getg stubs off this host's GOARCH: arm64's must assemble and pass vet's
# asmdecl, and a GOARCH with no stub (386) must build on the fallback.
cross-build:
	GOARCH=arm64 $(GO) vet .
	GOARCH=386 $(GO) build ./...

bench:
	$(GO) test -run xxx -bench . -benchtime 100x ./...

# Run every figure tool once — catches bit-rotted tools. The figure tools
# take no flags and print their whole figure in model time; rma-, kinds-,
# coll- and sympack-bench's bytes are pinned by the golden tests under
# cmd/*/testdata, which `make test` runs at one P and at four;
# internal/expmodel's TestGoldenMakespans pins dht- and eadd-bench's models
# at small points. dht-bench is the slow one (about a minute).
bench-smoke:
	$(GO) run ./cmd/upcxx-info
	$(GO) run ./cmd/rma-bench
	$(GO) run ./cmd/kinds-bench
	$(GO) run ./cmd/coll-bench
	$(GO) run ./cmd/dht-bench
	$(GO) run ./cmd/eadd-bench
	$(GO) run ./cmd/sympack-bench

# The committed benchmark is a module of its own (benchmark/go.mod,
# `replace upcxx => ../`) that reaches into internal/gasnet and the root package:
# vet it and run its self-test so an API slip is caught here, not by the
# benchmark pipeline. Same environment hygiene as benchmark/run.sh.
bench-selftest:
	GOFLAGS= GOWORK=off $(GO) vet -C benchmark ./...
	GOFLAGS= GOWORK=off $(GO) test -C benchmark ./...

# Interleaved parent/change pairs of the committed benchmark, the way a
# performance claim is measured: `make bench-pairs PARENT=<rev> [N=10]
# [WORKLOAD=name] [SEED=1]` runs N pairs (the working tree against PARENT,
# unpacked under .bench_build/), alternating which side goes first, keeps
# every -out file, and prints per cell both sides' median and quartiles, the
# pairs won, the change's IQR over the parent's median (flagged past 15 %) and
# whether every run of the change beat every run of the parent.
bench-pairs:
	@test -n "$(PARENT)" || { echo "usage: make bench-pairs PARENT=<rev> [N=10] [WORKLOAD=name] [SEED=1]"; exit 2; }
	bash scripts/bench-pairs.sh "$(PARENT)" "$(or $(N),10)" "$(WORKLOAD)" "$(or $(SEED),1)"

# The three sizes the simplicity aim is quoted in: non-test Go lines outside
# benchmark/ (the test packages' links to the root sources are not lines of
# their own), the root package's exported package-level identifiers
# (testdata/api.golden, which TestAPIGolden pins to the source), and the lines
# of DESIGN.md and EXPERIMENTS.md together.
loc:
	@git ls-files -s '*.go' | awk '$$1 != "120000" {print $$4}' | grep -v '_test\.go$$' | grep -v '^benchmark/' | xargs cat | wc -l
	@grep -c . testdata/api.golden
	@cat DESIGN.md EXPERIMENTS.md | wc -l

# The runtime's white-box tests keep their own packages, internal/core and
# internal/task, which compile the root package's sources through one
# symlink per file: each directory must link every non-test root source (a
# file added at the root gets `ln -s ../../<file> internal/core/` and the same
# in internal/task) and hold no source of its own.
test-links:
	@want=$$(ls *.go *.s | grep -v '_test\.go$$'); \
	for d in internal/core internal/task; do \
		have=$$(cd $$d && ls *.go *.s | grep -v '_test\.go$$'); \
		if [ "$$have" != "$$want" ]; then \
			echo "test-links: $$d's sources are not the root's"; exit 1; \
		fi; \
		for f in $$have; do \
			if [ "$$(readlink $$d/$$f)" != "../../$$f" ]; then \
				echo "test-links: $$d/$$f must be a symlink to ../../$$f"; exit 1; \
			fi; \
		done; \
	done

# Observability smoke: quickstart with stats and tracing armed must print
# a non-empty sampled op timeline; over real conduits the merged snapshot
# upcxx-info gathers by RPC must carry every process's transport counters
# (shm ring records, tcp frames); and the obs-threaded runtime must stay
# race-clean under concurrent recording.
obs-smoke:
	UPCXX_STATS=1 UPCXX_TRACE=1 $(GO) run ./examples/quickstart | grep "sample op timeline" >/dev/null
	UPCXX_STATS=1 UPCXX_TRACE=1 UPCXX_CONDUIT=shm UPCXX_NPROC=2 $(GO) run ./cmd/upcxx-info | grep -E '^wire: .*ring_records=[1-9]' >/dev/null
	UPCXX_STATS=1 UPCXX_TRACE=1 UPCXX_CONDUIT=tcp UPCXX_NPROC=2 $(GO) run ./cmd/upcxx-info | grep -E '^wire: .*frames_out=[1-9]' >/dev/null
	$(GO) test -race ./internal/core/ -run Obs
	$(GO) test -race ./internal/obs/

# Cross-process transport matrix: the multi-process test suite
# (internal/xproc re-executes its test binary as real OS-process ranks over
# tcp and shm — smoke ops, idle-wait CPU budget, kill-one-rank failure
# surfacing, the task runtime's cross-process steal/Finish job, what a remote
# task costs beside an RPC in messages and time, what a blocking round trip
# costs in doorbells and socket frames (pingpong), and kill-one-rank under
# Finish asserting ErrPeerLost) with one P in the test process and in every
# rank (the configuration the committed benchmark measures and the idle
# rule's one-P case), then every example end to end as a 4-process world on
# both real backends. Its race-enabled run is `make race`'s: `go test -race
# ./...` covers internal/xproc, so it is not run a second time here.
transport-smoke:
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/xproc
	@# pingpong once more with both ranks on one CPU, the benchmark's placement: its oversize row is a count only there
	if command -v taskset >/dev/null; then taskset -c 0 $(GO) test -count=1 ./internal/xproc -run PingPong; fi
	@set -e; for backend in tcp shm; do \
		for d in examples/*/; do \
			echo "== UPCXX_CONDUIT=$$backend UPCXX_NPROC=4 go run ./$$d"; \
			UPCXX_CONDUIT=$$backend UPCXX_NPROC=4 $(GO) run ./$$d; \
		done; \
	done

# Tier-1 verification in one command.
ci: build vet fmt-check test-links no-pin no-task-sleep no-queue-regrow no-stack-identity no-wall-clock-model cross-build test race alloc-pins bench-selftest bench-smoke examples-run obs-smoke transport-smoke
