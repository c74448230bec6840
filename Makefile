GO ?= go

.PHONY: all build test test-short race alloc-pins vet fmt-check fmt no-pin no-task-sleep no-queue-regrow bench bench-smoke bench-selftest bench-pairs loc fuzz-smoke examples-run obs-smoke transport-smoke ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The persona subsystem's acceptance gate: cross-thread LPC delivery,
# scope nesting, and progress-thread mode must be race-clean — plus the
# memory-kinds conformance matrix (every {host,device}×{same,cross} copy
# pair plus the DMA engine), the completion-object matrix
# ({op,source,remote} × {future,promise,LPC,RPC} × kinds × locality,
# including the remote-cx AM path), the collectives matrix
# ({barrier,bcast,reduce,allreduce} × {future,promise,LPC,remote-RPC} ×
# {host,device} × {world,split-team} plus persona handoff, the gathers and
# team splits, and the arrivals a collective must refuse), and the
# observability layer (concurrent counter recording, trace rings, the
# counter-conformance matrix) on top of it, and the batched-RPC datapath
# (the {batched-rpc} × {future,promise,LPC} × {self,cross} completion
# matrix, zero-copy capture, doorbell coalescing), and the async-task
# runtime's conformance matrix ({AsyncAt,AsyncAtFF,Finish} × {self,cross}
# × {steal on,off} × {LogGP,in-process} plus groups, worker concurrency,
# and the spawn→steal→execute trace pipeline), and the conduit backend
# conformance matrix ({put,get,am,amo,copy} × {host,device} × {self,peer,
# third-party} × {no rem,rem-AM,counted} on loopback, loggp and in-test
# tcp/shm wire networks, whose reader goroutines make it a real race test),
# and the shm ring's tests (the layout model, both doorbell protocols run
# concurrently and every interleaving of their steps, corrupt records drained by
# the reader and by a progress pass, a consumer lost under a flood) — once more
# with one P, where a poller and the reader contending for the one drain lock
# would show a drainer that blocks — and the
# socket send queue's and bulk landing's (an injector parked on the bound while
# its reader serves gets, a peer lost or a close under that park, megabyte puts
# and gets read into place by real reader goroutines).
# PoolStress is the injection-record pool's safety test: records taken, run,
# completed and released on different goroutines, with a peer failed
# mid-flight. The second core leg runs the idle rule's tests and the persona
# suite with one P, where a waiter that yields instead of parking starves
# whoever must wake it — a schedule a multi-core CI host never produces by
# itself — and a master that polls bare Progress starves the injectors
# blocked behind it. The task package runs a second time with one P too: the
# steal bounce and a worker parked over a queued task only show there.
race:
	$(GO) test -race ./internal/core/ -run 'Persona|Kinds|Cx|Coll|Gather|TeamSplit|Obs|Batch|PoolStress'
	GOMAXPROCS=1 $(GO) test -race ./internal/core/ -run 'OneP|Idle|Persona|PollingMaster'
	$(GO) test -race ./internal/dht/ -run 'ConcurrentUsers|BatchInserter'
	$(GO) test -race ./internal/gasnet/ -run 'Kinds|DeviceSegment|Conformance|Ring|Wire'
	GOMAXPROCS=1 $(GO) test -race ./internal/gasnet/ -run 'Ring|Wire'
	$(GO) test -race ./internal/obs/
	$(GO) test -race ./internal/task/
	GOMAXPROCS=1 $(GO) test -race ./internal/task/

# Allocation pins (testing.AllocsPerRun; they skip themselves under -race):
# heap objects per operation in core, per AM in gasnet, per decoded aux
# token, per park, and per rpc_ff as a downstream package pays it (the
# facade test: generic entry points instantiated outside internal/core).
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
	@if grep -rn LockOSThread internal/; then \
		echo "no-pin: runtime goroutines must not be pinned to OS threads"; exit 1; \
	fi

# A worker or helper of the task runtime waits by the rank's idle rule
# (ProgressWait): whatever hands it work rings the doorbell it parks on. A
# time.Sleep cannot be woken, so every hand-off behind it waits the sleep out.
no-task-sleep:
	@if grep -n 'time\.Sleep' internal/task/task.go internal/task/steal.go; then \
		echo "no-task-sleep: the task runtime idles through Rank.ProgressWait, never time.Sleep"; exit 1; \
	fi

# The runtime's queues (Rank.defQ, Endpoint.compQ/amQ) are drained by
# swapping in a spare buffer; resetting one to nil makes every pass regrow
# it from nothing — a heap object per operation again.
no-queue-regrow:
	@if grep -rnE '(defQ|compQ|amQ) = nil' --include='*.go' --exclude='*_test.go' internal/; then \
		echo "no-queue-regrow: drain queues by swapping buffers (see InternalProgress, PollCompletions, PollAMsAs)"; exit 1; \
	fi

bench:
	$(GO) test -run xxx -bench . -benchtime 100x ./...

# Run every figure/benchmark tool for one short (model-only or tiny)
# iteration — catches bit-rotted benches without burning CI time.
bench-smoke:
	$(GO) run ./cmd/upcxx-info
	$(GO) run ./cmd/rma-bench -mode all -model-only
	$(GO) run ./cmd/kinds-bench -model-only
	$(GO) run ./cmd/kinds-bench -max-size 65536 -reps 1 -dilation 20 -stats
	$(GO) run ./cmd/coll-bench -model-only
	$(GO) run ./cmd/coll-bench -ranks 4 -radices 2 -iters 2 -reps 1 -dilation 20
	$(GO) run ./cmd/dht-bench -inserts 4 -pipelined -batch
	$(GO) run ./cmd/eadd-bench
	$(GO) run ./cmd/sympack-bench
	$(GO) run ./cmd/task-bench -spawns 256 -tasks 128 -grain 2ms -batches 2,8

# The committed benchmark is a module of its own (benchmark/go.mod,
# `replace upcxx => ../`) that reaches into internal/gasnet and the facade:
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

# The two sizes the simplicity aim is quoted in (ROADMAP item 5): non-test Go
# lines outside benchmark/, and exported functions of the facade.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^benchmark/' | xargs cat | wc -l
	@grep -c '^func [A-Z]' upcxx.go

# Observability smoke: quickstart with stats and tracing armed must print
# a non-empty sampled op timeline, and the obs-threaded runtime must stay
# race-clean under concurrent recording.
obs-smoke:
	UPCXX_STATS=1 UPCXX_TRACE=1 $(GO) run ./examples/quickstart | grep "sample op timeline" >/dev/null
	$(GO) test -race ./internal/core/ -run Obs
	$(GO) test -race ./internal/obs/

# Cross-process transport matrix: the race-enabled multi-process test
# suite (internal/xproc re-executes its test binary as real OS-process
# ranks over tcp and shm — smoke ops, idle-wait CPU budget, kill-one-rank
# failure surfacing, the task runtime's cross-process steal/Finish job,
# what a remote task costs beside an RPC in messages and time, what a blocking
# round trip costs in doorbells and socket frames (pingpong), and
# kill-one-rank under Finish asserting ErrPeerLost), once more with
# one P in the test process and in every rank (the configuration the
# committed benchmark measures and the idle rule's one-P case), then every
# example end to end as a 4-process world on both real backends.
transport-smoke:
	$(GO) test -race -count=1 ./internal/xproc
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
ci: build vet fmt-check no-pin no-task-sleep no-queue-regrow test race alloc-pins bench-selftest examples-run obs-smoke transport-smoke
