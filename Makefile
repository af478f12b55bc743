# Developer entry points. Everything is pure stdlib Go; no tool downloads.

GO ?= go

# Every command binary `make bin` produces under ./bin.
CMDS = abd-sim abd-node abd-cli abd-check abd-bench abd-trace abd-top abd-prof

.PHONY: all build bin test race vet check smoke bench throughput shards byz alloc fastpath eval clean

all: check

build:
	$(GO) build ./...

bin:
	$(GO) build -o bin/ $(addprefix ./cmd/,$(CMDS))

test:
	$(GO) test ./...

# The instrumentation layer (obs histograms/tracers, client/replica counters,
# netsim stats epochs) is lock-free or lock-cheap by design; keep it honest
# under the race detector. These are the packages with real concurrency
# (examples/byzantine shares one core.Liar across a replica's sends).
race:
	$(GO) test -race ./internal/obs/... ./internal/core/... ./internal/netsim/... ./internal/tcpnet/... ./internal/chaos/... ./internal/nemesis/... ./internal/wire/... ./internal/shard/... ./internal/health/... ./internal/experiments/... ./internal/quorum/... ./internal/failure/... ./internal/prof/... ./examples/byzantine/...

vet:
	$(GO) vet ./...

check: build vet test race

# Tier-2 smoke: one seeded nemesis pass on a real TCP cluster (chaos faults,
# crash+restart, linearizability check), its spans dumped as JSONL and fed
# back through abd-trace, which exits nonzero unless at least 95% of the
# replica/transport spans stitch to the client operation that caused them.
# Then a scripted link-fault mix and partition on the simulator, through
# the same chaos injector: the run fails on any NOT linearizable register
# or if the drop mix lost nothing.
SMOKE_SPANS ?= $(if $(TMPDIR),$(TMPDIR),/tmp)/abd-smoke-spans.jsonl
SMOKE_SIM_OUT ?= $(if $(TMPDIR),$(TMPDIR),/tmp)/abd-smoke-sim.txt
SMOKE_SIM_FAULTS = faults:*:drop=0.2@20ms; partition:0,1|2,3,4@60ms; heal@150ms; faults:*:none@200ms
smoke:
	$(GO) run ./cmd/abd-sim -nemesis -seed 7 -trace-out $(SMOKE_SPANS)
	$(GO) run ./cmd/abd-trace -min-stitch 0.95 $(SMOKE_SPANS)
	$(GO) run ./cmd/abd-sim -n 5 -check -faults "$(SMOKE_SIM_FAULTS)" > $(SMOKE_SIM_OUT); st=$$?; cat $(SMOKE_SIM_OUT); test $$st -eq 0
	! grep -q 'NOT linearizable' $(SMOKE_SIM_OUT)
	grep -Eq ', [1-9][0-9]* dropped\)' $(SMOKE_SIM_OUT)

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate BENCH_throughput.json: the batching-pipeline on/off comparison
# (cmd/abd-bench -exp throughput) at full duration on the canonical seed.
throughput:
	$(GO) run ./cmd/abd-bench -exp throughput -seed 1 -json BENCH_throughput.json

# Regenerate BENCH_shards.json: aggregate throughput at 1/2/3 replica groups
# behind one sharded store (cmd/abd-bench -exp shards) at full duration.
shards:
	$(GO) run ./cmd/abd-bench -exp shards -seed 1 -json BENCH_shards.json

# Regenerate BENCH_byz.json: the Byzantine validation cost sheet and
# verdicts (cmd/abd-bench -exp byz: f=0 vs f=1, honest and under attack).
byz:
	$(GO) run ./cmd/abd-bench -exp byz -seed 1 -json BENCH_byz.json

# Regenerate BENCH_alloc.json: per-phase allocation attribution plus the
# TP-workload GC picture (cmd/abd-bench -exp alloc). The phase rows use
# fixed op counts, so a -quick CI run is comparable to this full baseline
# via `abd-prof bench-diff`.
alloc:
	$(GO) run ./cmd/abd-bench -exp alloc -seed 1 -json BENCH_alloc.json

# Regenerate BENCH_fastpath.json: the confirmed-watermark fast-path read
# comparison (cmd/abd-bench -exp fastpath: two-phase vs skip-unanimous vs
# fast-path under a paced writer) at full duration on the canonical seed.
fastpath:
	$(GO) run ./cmd/abd-bench -exp fastpath -seed 1 -json BENCH_fastpath.json

# Regenerate every evaluation table (EXPERIMENTS.md appendix).
eval:
	$(GO) run ./cmd/abd-bench -exp all -seed 1

clean:
	$(GO) clean ./...
