# Tier-1 gate, race gate, fuzz smoke, differential-oracle campaign, ECO
# smoke, placement gate, golden tables, skew kernel gate, stage-3 flow
# gate, benchmark-harness gate, and coverage gate; `make scaling` writes
# BENCH_scaling.json.
# See scripts/ci.sh. `make ci` chains the deterministic gates.

SEEDS ?= 25
BASE ?= HEAD~1

.PHONY: test race fuzz serve scaling scaling-smoke eco oracle place timing skew assign benchmark golden cover loc ci

test:
	sh scripts/ci.sh test

race:
	sh scripts/ci.sh race

fuzz:
	sh scripts/ci.sh fuzz

# End-to-end daemon smoke: rotaryd under job and ECO load, deadline
# degradation, drain.
serve:
	sh scripts/ci.sh serve

# The one writer of BENCH_scaling.json: the size sweep (1k..128k cells,
# doubling; each size one audited core.Run at Parallelism 1 and at
# GOMAXPROCS, times from the run's spans) plus the 50k-cell, 20-edit ECO
# row, which must be >= 10x faster per edit than a full re-run. Nothing is
# written unless every row passes.
scaling:
	go run ./cmd/rotaryscale -out BENCH_scaling.json

# Race-enabled 50k-cell smoke (the CI gate; minutes, not the full sweep).
scaling-smoke:
	sh scripts/ci.sh scaling

# ECO gate: the CG kernel's stagnation test, the dirty-region solve against
# the reference serial CG, the in-component CG cancel tests, the scoped-STA
# tests (a cache updated over each edit's scope bit-equal to a full Analyze
# after random edits, ErrCycle, Apply's cache contract), the
# signal-wirelength cache test, the state-fork test (forks of one base
# state leave it untouched), the timing.sta.scope and eco.signalwl.scope
# oracle negatives, the RandomDeltas tests (sequences pinned by digest,
# validity, the caller's circuit restored even on a panic), the clean
# oracle campaign, the shared-base /v1/eco
# test under -race, the allocation budget of an edit (TestApplyECOAllocBudget),
# one iteration of BenchmarkApplyECO/3k with -benchmem (so the benchmark
# that reports an edit's B/op and paths/op keeps running), and the smoke: 20
# random edits at 20k cells, each proven equivalent to the from-scratch arm,
# mean edit latency >= 5x a full re-run, STA sources over all edits <= half
# of one full rebuild.
eco:
	sh scripts/ci.sh eco

oracle:
	SEEDS=$(SEEDS) sh scripts/ci.sh oracle

# Placement gate: the ^TestDetailed tests under -race (swap loop
# bit-identical to the reference loop), the Global/Incremental worker-count
# determinism tests under -race (the x/y axis solves, the placer's only
# concurrent path), the V-cycle tests, the binned
# MaxOverlap against the all-pairs reference and the corrupt-site oracle
# negative, one iteration of BenchmarkDetailed (so the benchmark that reports
# the swap loop's rescans/op and pruned/op keeps running), then the
# 50k-cell core.Run + Audit smoke,
# which must run stage 1 through the V-cycle, under PLACE_TIMEOUT (default
# 120s).
place:
	sh scripts/ci.sh place

# Timing gate: Analyze and ExtractCritical against their reference copies,
# the scoped-STA cache against a full Analyze after random edits, the
# critical-path reweighting identity tests and the Table VIII acceptance run.
timing:
	sh scripts/ci.sh timing

# Skew kernel gate: kernel-vs-reference differential and early-exit tests,
# the max-slack cycle iteration tests (known graphs, vs LP, vs Karp, linear
# memory), the weighted-sum schedule recovery vs the reference residual
# Bellman-Ford, the max-slack and min-Delta oracle negative tests, and the
# golden tables.
skew:
	sh scripts/ci.sh skew

# Stage-3 assignment gate: the early-exit flow solver against its verbatim
# pre-CSR full-search copy (flows, cost bits and path counts equal, no more
# relaxations; a feasible flow and dual-feasible potentials on tied graphs,
# bit-equal residuals on untied ones), the sink exit itself, the typed heap
# against container/heap, allocation-free augmenting paths, the
# preload-vs-reference differential,
# the priced preload's dual feasibility, ECO patch tests (any prices cost-equal to a
# cold solve, a chained patch sequence), candidate-row reuse against cold
# solves (bit-equal, across worker counts), the mcmf seeded-start,
# negative-cost rejection and Push tests, the assignment and ECO oracle
# negative tests, the Section VI assignment LP (against the dense simplex,
# bit-equal to its verbatim pre-refactor copy), the dense simplex's random
# optimality certificates, the LP oracle check and its negative test, and
# the golden tables.
assign:
	sh scripts/ci.sh assign

# Benchmark-harness gate: vet and test the separate benchmark/ module, which
# root `go test ./...` never compiles (build cache under .bench_build/).
benchmark:
	sh scripts/ci.sh benchmark

golden:
	sh scripts/ci.sh golden

cover:
	sh scripts/ci.sh cover

# Non-test Go line delta against BASE (default HEAD~1).
loc:
	BASE=$(BASE) sh scripts/ci.sh loc

ci: test race golden oracle serve eco place timing skew assign benchmark cover
