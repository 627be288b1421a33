# Tier-1 gate, race gate, fuzz smoke, benchmark baseline, placer perf
# comparison, differential-oracle campaign, ECO smoke, golden tables, skew
# kernel gate, stage-3 flow gate, benchmark-harness gate, and coverage gate.
# See scripts/ci.sh. `make ci` chains the deterministic gates.

SEEDS ?= 25
BASE ?= HEAD~1

.PHONY: test race fuzz serve bench benchcmp scaling scaling-smoke eco eco-bench oracle ml timing skew assign benchmark golden cover loc ci

test:
	sh scripts/ci.sh test

race:
	sh scripts/ci.sh race

fuzz:
	sh scripts/ci.sh fuzz

# End-to-end daemon smoke: rotaryd under load, deadline degradation, drain.
serve:
	sh scripts/ci.sh serve

bench:
	sh scripts/ci.sh bench

benchcmp:
	sh scripts/ci.sh benchcmp

# Full geometric size sweep (1k..512k cells) -> BENCH_scaling.json, flat
# points plus the multilevel V-cycle arm (the ml section). Both arms run the
# production 24-round spreading schedule so the rows measure the placement
# the flow actually ships (the abbreviated -spread 8 schedule understates
# the V-cycle, whose cost is nearly schedule-independent).
scaling:
	go run ./cmd/rotaryscale -spread 24 -out BENCH_scaling.json
	go run ./cmd/rotaryscale -ml -spread 24 -out BENCH_scaling.json

# Race-enabled 50k-cell smoke (the CI gate; minutes, not the full sweep).
scaling-smoke:
	sh scripts/ci.sh scaling

# ECO smoke: 20 random edits at 20k cells, each proven equivalent to the
# from-scratch arm, mean edit latency >= 5x a full re-run.
eco:
	sh scripts/ci.sh eco

# ECO headline row: 50k cells, 20 edits, >= 10x -> BENCH_scaling.json eco
# section.
eco-bench:
	go run ./cmd/rotaryscale -eco -eco-cells 50000 -eco-edits 20 \
		-eco-min-speedup 10 -out BENCH_scaling.json

oracle:
	SEEDS=$(SEEDS) sh scripts/ci.sh oracle

# Multilevel placement smoke: V-cycle identity/property tests, the
# corrupt-site oracle negative, and the race-enabled 50k flat-vs-ml point.
ml:
	sh scripts/ci.sh ml

timing:
	sh scripts/ci.sh timing

# Skew kernel gate: kernel-vs-reference differential and early-exit tests,
# the min-Delta oracle negative test, and the golden tables.
skew:
	sh scripts/ci.sh skew

# Stage-3 flow gate: preload-vs-reference differential, dual feasibility,
# canceler early-exit tests, ECO patch tests, the assignment and ECO oracle
# negative tests, and the golden tables.
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

ci: test race golden oracle serve eco ml timing skew assign benchmark cover
