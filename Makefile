GO ?= go

.PHONY: all build test race vet fmtcheck check faultcheck benchsmoke pipelinesmoke profsmoke dedupsmoke chaossmoke cachesmoke shardsmoke leakcheck identity report bench clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Formatting gate: gofmt must have nothing to rewrite anywhere in the
# tree; any file name it lists fails the check.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "fmtcheck: gofmt -l . lists:"; echo "$$out"; exit 1; fi
	@echo "fmtcheck: gofmt -l . lists nothing"

# Every gate below runs its go test unpiped: a pipe would hand make the
# exit status of the last command in it, so a failing test would pass.
check: build vet fmtcheck test race faultcheck benchsmoke pipelinesmoke profsmoke dedupsmoke chaossmoke cachesmoke shardsmoke leakcheck identity

# Fault-injection determinism gate: the resilience experiment — lossy
# sweeps, crashes, a partition — must be byte-identical across two
# fresh runs of the fixed-seed plan.
faultcheck:
	$(GO) run ./cmd/migsim -exp resilience > /tmp/faultcheck.a
	$(GO) run ./cmd/migsim -exp resilience > /tmp/faultcheck.b
	cmp /tmp/faultcheck.a /tmp/faultcheck.b
	@echo "faultcheck: resilience output is deterministic"

# Allocation-regression gate: the memory data plane's steady-state
# paths (resident faults, re-materialization, eviction churn, AMap
# rebuild, pool recycling) must stay at zero heap allocations, and the
# VM microbenchmark bodies must run clean at a token iteration count.
benchsmoke:
	$(GO) test -count=1 -run 'TestAllocs' -v ./internal/vm/
	$(GO) test -count=1 -run xxx -bench . -benchtime 100x ./internal/vmbench/
	@echo "benchsmoke: zero-alloc gates hold"

# Profiler smoke gate: one traced migration must rebuild into a
# connected critical-path DAG with positive downtime and per-resource
# blame fractions that sum to 1, and an unprofiled run must stay at
# zero profiler allocations.
profsmoke:
	$(GO) test -count=1 -run 'TestProfSmoke' -v ./internal/prof/
	$(GO) test -count=1 -run 'TestAllocsProfileOff' -v ./internal/sim/
	@echo "profsmoke: critical path connected, downtime > 0, blame sums to 1"

# Pipelined-transport smoke: the window/streaming sweep must run end to
# end on a two-workload subset (exercises the windowed wire, split-reply
# streaming, and the stall table).
pipelinesmoke:
	$(GO) run ./cmd/migsim -exp pipeline -kinds Minprog,Lisp-Del > /dev/null
	@echo "pipelinesmoke: window/streaming sweep runs"

# Content-addressed store smoke: the dedup sweep (store off/on x
# compression x strategy) and the three-machine nearest-holder
# comparison must run end to end on a two-workload subset, and the
# zero-alloc gate for the disabled store must hold.
dedupsmoke:
	$(GO) test -count=1 -run 'TestAllocsDedupOff' -v ./internal/vm/
	$(GO) run ./cmd/migsim -exp dedup -kinds Minprog,Lisp-Del > /dev/null
	@echo "dedupsmoke: store sweep and nearest-holder comparison run"

# Chaos smoke gate: a bounded 32-seed randomized fault campaign
# (loss/burst/partition/corruption x strategy x window x dedup mode)
# must uphold every invariant — golden image identity, no orphaned
# IOUs, no leaked frames, blame summing to 1, bounded downtime — and
# the resume and ledger-rollback regression tests must pass.
chaossmoke:
	$(GO) test -count=1 -run 'TestChaosSmoke|TestResumeRetrySavesBytes|TestManifestCrash' -v ./internal/experiments/
	@echo "chaossmoke: 32-seed campaign holds all invariants"

# Persistent memo-cache smoke: a cold -exp all run with the disk cache
# enabled must match the golden byte-for-byte, a warm rerun must be
# served entirely from disk and still match, and truncated or
# bit-flipped entries must silently recompute, repair, and produce no
# output drift.
cachesmoke:
	$(GO) test -count=1 -run 'TestGoldenWithDiskCache' -v ./cmd/migsim/
	$(GO) test -count=1 -run 'TestDiskCacheWarmIdentity|TestDiskCacheCorruptionFallback' -v ./internal/experiments/
	@echo "cachesmoke: warm rerun byte-identical, corrupt entries recompute"

# Sharded-kernel smoke gate: the lane/window scheduler's byte-identity
# tests (cluster vs single kernel, scenario at 2/4/8 workers vs
# sequential), the shards-off zero-alloc gate, and the end-to-end
# shard-stress experiment — which asserts its own identity check — must
# all pass.
shardsmoke:
	$(GO) test -count=1 -run 'TestClusterMatchesSingleKernel|TestAllocsShardsOff' -v ./internal/sim/
	$(GO) test -count=1 -run 'TestShardStressDeterminism' -v ./internal/experiments/
	$(GO) run ./cmd/migsim -exp shardstress > /dev/null
	@echo "shardsmoke: sharded kernel byte-identical to sequential"

# Teardown gate: Kernel.Close must unwind procs parked on every
# blocking primitive (deferred calls run once, no goroutine survives),
# and every trial function must close the kernel it builds, so a
# finished trial leaves no simulation goroutine parked behind it.
leakcheck:
	$(GO) test -count=1 -run 'TestClose|TestClusterClose' -v ./internal/sim/
	$(GO) test -count=1 -run 'TestTrialKernelsClosed' -v ./internal/experiments/
	@echo "leakcheck: closed kernels leave no parked procs"

# Identity gate: the default configuration (W=1, K=1) must still
# produce byte-identical experiment output to the committed golden, and
# the windowed-transport and content-store sweeps (-exp pipeline then
# -exp dedup) must match theirs.
identity:
	$(GO) run ./cmd/migsim -exp all > /tmp/identity.out
	cmp /tmp/identity.out testdata/exp_all.golden
	$(GO) run ./cmd/migsim -exp pipeline > /tmp/identity.transport
	$(GO) run ./cmd/migsim -exp dedup >> /tmp/identity.transport
	cmp /tmp/identity.transport testdata/exp_transport.golden
	@echo "identity: output matches testdata/exp_all.golden and testdata/exp_transport.golden"

# Regenerate the measured side of EXPERIMENTS.md.
report:
	$(GO) run ./cmd/migreport > EXPERIMENTS.md

# Regenerate the simulator-performance baselines: per-cell wall-clock
# plus sequential-vs-engine sweep timings (BENCH_grid.json), the
# VM-layer microbenchmarks (BENCH_vm.json), and the transport window
# sweep (BENCH_wire.json). The engine sweep pins four workers so the
# parallel measurement exercises real contention even on single-core
# runners.
bench:
	$(GO) run ./cmd/migbench -parallel 4 -o BENCH_grid.json -vm BENCH_vm.json -wire BENCH_wire.json

clean:
	$(GO) clean ./...
