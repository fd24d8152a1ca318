# Development targets for the AQuA timing-fault reproduction.

GO ?= go

.PHONY: all check build vet test race bench predict-bench bench-throughput check-throughput experiments quick-experiments faults a13 a14 a15 a16 a17 a18 race-lifecycle metrics-smoke fuzz clean

all: build vet test

# Full gate: compile, static analysis, tests, the race detector, and the
# decision-throughput regression fence.
check: build vet test race check-throughput

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Before/after δ measurement for the prediction fast path (BENCH_predict.json).
predict-bench:
	$(GO) run ./cmd/aqua-exp -exp predict

# Decision-path throughput benchmark: reference vs optimized vs concurrent
# callers; regenerates BENCH_throughput.json.
bench-throughput:
	$(GO) run ./cmd/aqua-exp -exp throughput

# Throughput regression fence: re-measure and compare against the committed
# BENCH_throughput.json (fails if the optimized-vs-reference speedup drops
# below 85% of baseline, the cached path allocates, or the p999 tail
# detaches — see experiment.ThroughputFence). Does not overwrite the
# baseline; use bench-throughput for that.
check-throughput:
	$(GO) run ./cmd/aqua-exp -exp throughput -throughput-against BENCH_throughput.json -throughput-out ""

# Regenerate every paper figure and ablation (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/aqua-exp -exp all | tee results_all.txt

quick-experiments:
	$(GO) run ./cmd/aqua-exp -exp all -quick

# Fault-injection experiment: timely-response rate under injected loss and
# delay spikes, headless with the fixed default seed (see README).
faults:
	$(GO) run ./cmd/aqua-exp -exp faults

# Overload sweep: paper-exact (A12 select-all collapse) vs budgeted
# redundancy + admission control (see EXPERIMENTS.md, a13).
a13:
	$(GO) run ./cmd/aqua-exp -exp a13

# §5.4 chaos soak: deterministic slow/crash/link churn through the full
# lifecycle loop (suspicion → quarantine → rejuvenation → probation).
# Exits non-zero when any recovery bound is missed (see EXPERIMENTS.md, a14).
a14:
	$(GO) run ./cmd/aqua-exp -exp a14

# Shared-intelligence digest fabric: K=4 gossiping gateways vs a single warm
# gateway vs the same fleet without gossip, aggregated over fixed seeds.
# Exits non-zero when the gossiping fleet misses 95% of the single gateway's
# timely fraction, exceeds 1/K of the no-gossip fleet's probe traffic, or the
# per-gateway digest accounting breaks (see EXPERIMENTS.md, a15).
a15:
	$(GO) run ./cmd/aqua-exp -exp a15

# WAN deployment ranking: place a replica budget over regions with bimodal
# (epoch-congested) links and rank placements by timely fraction under the
# point-mass T vs the windowed per-link T distribution. Exits non-zero when
# the windowed T's best placement stops matching or beating the point-mass
# T's best (see EXPERIMENTS.md, a16). Quick mode (1 seed) for CI.
a16:
	$(GO) run ./cmd/aqua-exp -exp a16 -quick

# Heavy-tail cancellation sweep: first-response-wins cancellation and the
# online redundancy controller vs static budgets under Pareto service times.
# Exits non-zero when cancellation stops lifting saturated goodput, the
# controller falls behind the best static budget, or cancelled copies stop
# being reclaimed (see EXPERIMENTS.md, a17).
a17:
	$(GO) run ./cmd/aqua-exp -exp a17

# Ordered-mode lifecycle model check + recovery soak: an exhaustive sweep of
# small real-stack configurations (pool size x crash schedule x injector
# policy) held to prefix agreement, no lost acked writes, and the
# re-admission-implies-caught-up gate, then a virtual-time soak of the
# quarantine -> rejuvenate -> state transfer -> rejoin loop above Pc. Exits
# non-zero on any violation with a one-line repro (see EXPERIMENTS.md, a18).
a18:
	$(GO) run ./cmd/aqua-exp -exp a18

# Race detector focused on the lifecycle-bearing packages (CI runs this in
# addition to the full `make race` inside `make check`). The server and root
# packages carry the ordered-mode runtime (stable delivery, state transfer).
race-lifecycle:
	$(GO) test -race ./internal/core ./internal/repository ./internal/proteus ./internal/gateway ./internal/server .

# Observability smoke: boots a real cluster, drives traffic, serves the
# metrics endpoint, and validates the Prometheus and JSON scrape shapes
# against the scheduler's own counters.
metrics-smoke:
	$(GO) test . -run TestMetricsEndToEnd -count=1 -v

# Short fuzzing pass over the wire codec, including the ordered-mode
# state-transfer frames (StateRequest/StateChunk).
fuzz:
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 20s
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzEncodeDecodeRoundTrip -fuzztime 20s
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzStateTransferRoundTrip -fuzztime 20s

clean:
	$(GO) clean -testcache
