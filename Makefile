# Every target but scaling runs one gate of scripts/ci.sh, whose usage
# header describes each gate once; `make ci` chains the deterministic gates.

BASE ?= HEAD~1

.PHONY: test race fuzz serve scaling scaling-smoke eco oracle place timing skew assign benchmark golden cover loc ci

test:
	sh scripts/ci.sh test

race:
	sh scripts/ci.sh race

fuzz:
	sh scripts/ci.sh fuzz

serve:
	sh scripts/ci.sh serve

# The one writer of BENCH_scaling.json (cmd/rotaryscale): the 1k..128k
# size sweep plus the 50k-cell, 20-edit ECO row, which must be >= 10x
# faster per edit than a full re-run; nothing is written unless every row
# passes.
scaling:
	go run ./cmd/rotaryscale -out BENCH_scaling.json

scaling-smoke:
	sh scripts/ci.sh scaling

eco:
	sh scripts/ci.sh eco

oracle:
	sh scripts/ci.sh oracle

place:
	sh scripts/ci.sh place

timing:
	sh scripts/ci.sh timing

skew:
	sh scripts/ci.sh skew

assign:
	sh scripts/ci.sh assign

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
