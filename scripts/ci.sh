#!/bin/sh
# CI entry points for the repo: test, race, bench.
#
#   scripts/ci.sh test    go build + gofmt -l + go vet + go test over every
#                         package (tier-1 gate)
#   scripts/ci.sh race    go test -race over every package (parallel kernels)
#   scripts/ci.sh fuzz    smoke-fuzz every Fuzz target (10s each) on top of
#                         the checked-in corpora under testdata/fuzz/
#   scripts/ci.sh serve   end-to-end daemon smoke: rotaryd under rotaryload
#                         (concurrent jobs, zero failures), a deadline-bound
#                         oversized job that must degrade within its budget,
#                         and SIGTERM -> graceful drain -> exit 0
#   scripts/ci.sh bench   run the benchmark suite with -benchmem and record
#                         it as BENCH_baseline.json so future PRs have a
#                         perf trajectory to compare against
#   scripts/ci.sh benchcmp
#                         run the placer hot-path benchmarks
#                         (BenchmarkGlobalPlace, BenchmarkSystemBuildVsReuse,
#                         BenchmarkCGSolve) and diff ns/op and allocs/op
#                         against the recorded BENCH_baseline.json, so the
#                         build-once reuse perf claim is reproducible in one
#                         command; the baseline file is NOT rewritten
#   scripts/ci.sh oracle  run the differential-testing campaign
#                         (cmd/rotaryoracle): SEEDS random instances through
#                         every reference solver and metamorphic oracle,
#                         failing with minimized repros under
#                         testdata/repros/ on any violation (default 25
#                         seeds; SEEDS=200 is the acceptance depth)
#   scripts/ci.sh scaling race-enabled 50k-cell generate + place + assign
#                         smoke under a wall-clock budget (SCALING_TIMEOUT,
#                         default 10m), plus the tiny sweep-point unit test;
#                         the full geometric sweep is `make scaling`
#                         (cmd/rotaryscale -> BENCH_scaling.json)
#   scripts/ci.sh eco     ECO smoke: 20 random single-delta edits at 20k
#                         cells through the incremental path, every edit
#                         proven equivalent to the from-scratch arm, mean
#                         edit latency at least 5x faster than a full
#                         re-run (ECO_TIMEOUT, default 15m); the 50k
#                         headline row is `make eco-bench`
#   scripts/ci.sh ml      multilevel placement smoke: the V-cycle identity
#                         and property tests (off path bit-identical at 1 and
#                         8 workers, coarsening invariants, cancellation and
#                         degenerate fallbacks), the corrupt-site oracle
#                         negative test, and a race-enabled 50k-cell
#                         flat-vs-V-cycle sweep point with a 5% wirelength
#                         bound (ML_TIMEOUT, default 15m); the full sweep arm
#                         is `make scaling` (cmd/rotaryscale -ml)
#   scripts/ci.sh timing  timing-driven placement smoke: the critical-path
#                         reweighting identity tests (feature off or boost
#                         disabled must be bit-identical to the base flow,
#                         at 1 and 8 workers), the swallowed-STA-error
#                         surface test, and the Table VIII worst-slack
#                         acceptance run (improvement on >= 2 circuits)
#   scripts/ci.sh skew    difference-constraint kernel gate: the kernel vs
#                         the reference n+1-round loop (random raw, Fishburn
#                         and guard-band systems, bit-identical potentials),
#                         the early negative-cycle exit tests, the min-Delta
#                         oracle negative test, and the golden tables
#   scripts/ci.sh assign  stage-3 min-cost flow gate: the cheapest-ring
#                         preload vs the zero-start reference solve (loose,
#                         tight, pinned, pruned, fallback, ladder and tied
#                         instances), its dual feasibility, the canceler's
#                         early-exit and guard-band tests, the ECO patch
#                         tests, the assignment and ECO oracle negative
#                         tests, and the golden tables
#   scripts/ci.sh benchmark
#                         go vet + go test of the benchmark harness, a
#                         separate module (benchmark/go.mod) that root
#                         `go test ./...` never compiles, so an API change
#                         it depends on cannot break it unseen; built with
#                         benchmark/run.sh's environment isolation (every
#                         file the toolchain writes stays under
#                         .bench_build/)
#   scripts/ci.sh golden  run only the golden-table regression harness
#                         (UPDATE=1 re-records the goldens after a reviewed
#                         table change)
#   scripts/ci.sh cover   go test -cover over every package; fails if total
#                         statement coverage drops more than 2 points below
#                         the recorded COVERAGE_baseline.txt (UPDATE=1
#                         re-records the baseline)
#   scripts/ci.sh loc     added, removed and net non-test Go lines of the
#                         working tree against BASE (default HEAD~1), the
#                         delta each change reports in CHANGES.md; files new
#                         since BASE count once staged with git add
#
# BENCHTIME overrides the bench sampling (default 1x: one timed iteration
# per benchmark keeps the whole suite under a couple of minutes; use e.g.
# BENCHTIME=2s for publication-grade numbers).
set -eu

cd "$(dirname "$0")/.."

cmd="${1:-test}"

case "$cmd" in
test)
    go build ./...
    unformatted="$(gofmt -l .)"
    if [ -n "$unformatted" ]; then
        echo "gofmt -l: the following files need formatting:" >&2
        echo "$unformatted" >&2
        exit 1
    fi
    go vet ./...
    go test ./...
    ;;
race)
    go test -race ./...
    ;;
fuzz)
    fuzztime="${FUZZTIME:-10s}"
    go test ./internal/netlist/ -fuzz '^FuzzParseBench$' -fuzztime "$fuzztime"
    go test ./internal/rotary/ -fuzz '^FuzzSolveTap$' -fuzztime "$fuzztime"
    go test ./internal/lp/ -fuzz '^FuzzILPRound$' -fuzztime "$fuzztime"
    go test ./internal/serve/ -fuzz '^FuzzParseJobRequest$' -fuzztime "$fuzztime"
    go test ./internal/serve/ -fuzz '^FuzzParseECORequest$' -fuzztime "$fuzztime"
    ;;
serve)
    # End-to-end daemon smoke: build rotaryd + rotaryload, drive a small
    # concurrent load (zero failures tolerated), prove a deadline-bound big
    # job degrades instead of stalling, then SIGTERM mid-life and require a
    # clean drain (exit 0).
    bin="$(mktemp -d)"
    trap 'rm -rf "$bin"' EXIT
    go build -o "$bin/rotaryd" ./cmd/rotaryd
    go build -o "$bin/rotaryload" ./cmd/rotaryload
    "$bin/rotaryd" -addr 127.0.0.1:0 -addr-file "$bin/addr" -queue 16 -workers 2 &
    pid=$!
    i=0
    while [ ! -s "$bin/addr" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "rotaryd never wrote its address" >&2
            kill "$pid" 2>/dev/null || true
            exit 1
        fi
        sleep 0.1
    done
    addr="$(cat "$bin/addr")"
    "$bin/rotaryload" -addr "$addr" -n 12 -c 8 -cells 800 -iters 2 -seed 1
    "$bin/rotaryload" -addr "$addr" -n 2 -c 2 -cells 20000 -iters 2 -deadline-ms 200 -max-p99-ms 5000 -seed 99
    kill -TERM "$pid"
    wait "$pid"
    echo "serve smoke: load + deadline degradation + graceful drain ok"
    ;;
oracle)
    seeds="${SEEDS:-25}"
    go run ./cmd/rotaryoracle -seeds "$seeds" -v
    ;;
bench)
    benchtime="${BENCHTIME:-1x}"
    out="${BENCH_OUT:-BENCH_baseline.json}"
    raw="$(mktemp)"
    trap 'rm -f "$raw"' EXIT
    go test -run='^$' -bench . -benchmem -benchtime "$benchtime" ./... | tee "$raw"
    # Convert `go test -bench` lines into a JSON array so the baseline is
    # machine-readable: one object per benchmark with ns/op, B/op,
    # allocs/op, and any custom metrics.
    awk -v benchtime="$benchtime" '
        BEGIN { print "[" }
        /^Benchmark/ {
            name = $1; iters = $2
            line = sep "  {\"name\": \"" name "\", \"iterations\": " iters
            for (i = 3; i < NF; i += 2) {
                unit = $(i + 1)
                gsub(/"/, "", unit)
                line = line ", \"" unit "\": " $i
            }
            print line "}"
            sep = ","
        }
        END { print "]" }
    ' "$raw" > "$out"
    echo "wrote $out (benchtime $benchtime)"
    ;;
benchcmp)
    benchtime="${BENCHTIME:-1x}"
    baseline="${BENCH_BASELINE:-BENCH_baseline.json}"
    raw="$(mktemp)"
    trap 'rm -f "$raw"' EXIT
    go test -run '^$' \
        -bench '^(BenchmarkGlobalPlace|BenchmarkSystemBuildVsReuse|BenchmarkCGSolve)$' \
        -benchmem -benchtime "$benchtime" ./internal/placer/ | tee "$raw"
    echo
    echo "=== comparison against $baseline (ns/op, allocs/op) ==="
    awk -v baseline="$baseline" '
        BEGIN {
            # Index the baseline: one JSON object per line, machine-written
            # by `scripts/ci.sh bench` (name, ns/op, allocs/op fields).
            while ((getline line < baseline) > 0) {
                if (match(line, /"name": "[^"]*"/)) {
                    name = substr(line, RSTART + 9, RLENGTH - 10)
                    ns = ""; al = ""
                    if (match(line, /"ns\/op": [0-9.e+]*/))
                        ns = substr(line, RSTART + 9, RLENGTH - 9)
                    if (match(line, /"allocs\/op": [0-9.e+]*/))
                        al = substr(line, RSTART + 13, RLENGTH - 13)
                    baseNs[name] = ns; baseAl[name] = al
                }
            }
            printf "%-42s %14s %14s %9s %9s\n", "benchmark", "ns/op", "base-ns/op", "ns-ratio", "allocs-x"
        }
        /^Benchmark/ {
            name = $1
            sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix
            ns = $3
            al = ""
            for (i = 4; i < NF; i++)
                if ($(i + 1) == "allocs/op") al = $i
            if (!(name in baseNs)) {
                printf "%-42s %14s %14s %9s %9s\n", name, ns, "(new)", "-", "-"
                next
            }
            nsr = (baseNs[name] > 0) ? ns / baseNs[name] : 0
            alr = (baseAl[name] != "" && baseAl[name] > 0 && al != "") ? baseAl[name] / al : 0
            printf "%-42s %14s %14s %8.2fx %8.2fx\n", name, ns, baseNs[name], nsr, alr
        }
    ' "$raw"
    echo "(ns-ratio < 1 is faster than baseline; allocs-x is the allocation reduction factor)"
    scaling="${BENCH_SCALING:-BENCH_scaling.json}"
    if [ -f "$scaling" ]; then
        echo
        echo "=== size sweep ($scaling, read-only) ==="
        awk '
            BEGIN { printf "%10s %8s %7s %12s %14s %10s\n", "cells", "ffs", "rings", "ns/cell", "allocs/cell", "total-ms" }
            /"cells":/      { gsub(/[^0-9]/, "", $2); cells = $2 }
            /"ffs":/        { gsub(/[^0-9]/, "", $2); ffs = $2 }
            /"rings":/      { gsub(/[^0-9]/, "", $2); rings = $2 }
            /"total_ns":/   { gsub(/[^0-9]/, "", $2); total = $2 }
            /"ns_per_cell":/    { gsub(/[^0-9.]/, "", $2); nspc = $2 }
            /"allocs_per_cell":/ {
                gsub(/[^0-9.]/, "", $2)
                printf "%10d %8d %7d %12.0f %14.1f %10.0f\n", cells, ffs, rings, nspc, $2, total / 1e6
            }
        ' "$scaling"
    fi
    ;;
scaling)
    timeout="${SCALING_TIMEOUT:-10m}"
    go test ./internal/bench/ -run '^TestScalingPoint$' -count=1
    ROTARY_SCALING_SMOKE=1 go test -race -timeout "$timeout" \
        -run '^TestScaling50k$' -count=1 -v ./internal/bench/
    ;;
eco)
    timeout="${ECO_TIMEOUT:-15m}"
    go test ./internal/bench/ -run '^TestECOBenchPoint$' -count=1
    ROTARY_ECO_SMOKE=1 go test -timeout "$timeout" \
        -run '^TestECOSmoke20k$' -count=1 -v ./internal/bench/
    ;;
ml)
    timeout="${ML_TIMEOUT:-15m}"
    go test ./internal/placer/ -run '^(TestMultilevel|TestVCycle|TestCoarsen|TestProjectOverlays|TestInterpolate)' -count=1
    go test ./internal/oracle/ -run '^TestFaultMLCorruptDetected$' -count=1
    ROTARY_ML_SMOKE=1 go test -race -timeout "$timeout" \
        -run '^TestScalingML50k$' -count=1 -v ./internal/bench/
    ;;
timing)
    go test ./internal/core/ -run '^(TestTiming|TestWorstSlack)' -count=1
    go test ./internal/placer/ -run '^TestNetWeight' -count=1
    go test ./internal/oracle/ -run '^TestFaultReweightDetected$' -count=1
    go test -timeout 20m ./internal/exp/ -run '^(TestTimingSmoke|TestVarPairsSurfacesAnalysisError)$' -count=1 -v
    ;;
skew)
    go test ./internal/skew/ -run '^(TestRelax|TestMinDeltaMatchesReferenceLoop|TestWarmStart)' -count=1 -v
    go test ./internal/oracle/ -run '^TestFaultSkewMinDeltaDetected$' -count=1
    go test ./internal/exp -run '^TestGolden' -count=1
    ;;
assign)
    go test ./internal/assign/ -run '^(TestMinCostMatchesReference|TestPreloadDualFeasible|TestPatch)' -count=1 -v
    go test ./internal/mcmf/ -run '^(TestCancel|TestPreloadCancelAugmentMatchesScratch|TestMinCostFlow)' -count=1 -v
    go test ./internal/oracle/ -run '^(TestFaultMcmfDetected|TestFaultECODetected)$' -count=1
    go test ./internal/exp -run '^TestGolden' -count=1
    ;;
benchmark)
    out="$(pwd)/.bench_build"
    mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
    export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
    export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
    export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
    go -C benchmark vet ./...
    go -C benchmark test ./...
    ;;
golden)
    if [ "${UPDATE:-0}" = "1" ]; then
        go test ./internal/exp -run '^TestGolden' -count=1 -update
    else
        go test ./internal/exp -run '^TestGolden' -count=1
    fi
    ;;
cover)
    profile="$(mktemp)"
    trap 'rm -f "$profile"' EXIT
    go test -coverprofile "$profile" ./...
    total="$(go tool cover -func "$profile" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')"
    echo "total statement coverage: ${total}%"
    if [ "${UPDATE:-0}" = "1" ]; then
        echo "$total" > COVERAGE_baseline.txt
        echo "wrote COVERAGE_baseline.txt"
    elif [ -f COVERAGE_baseline.txt ]; then
        baseline="$(cat COVERAGE_baseline.txt)"
        awk -v t="$total" -v b="$baseline" 'BEGIN {
            if (t + 2.0 < b) {
                printf "coverage regression: %.1f%% is more than 2 points below the %.1f%% baseline\n", t, b
                exit 1
            }
            printf "baseline %.1f%%: ok\n", b
        }'
    else
        echo "no COVERAGE_baseline.txt; run UPDATE=1 scripts/ci.sh cover to record one" >&2
        exit 1
    fi
    ;;
loc)
    base="${BASE:-HEAD~1}"
    git diff --numstat "$base" -- '*.go' ':(exclude)*_test.go' | awk -v base="$base" '
        { added += $1; removed += $2 }
        END { printf "non-test Go lines vs %s: +%d -%d, net %+d\n", base, added, removed, added - removed }'
    ;;
*)
    echo "usage: scripts/ci.sh {test|race|fuzz|serve|bench|benchcmp|scaling|eco|oracle|ml|timing|skew|assign|benchmark|golden|cover|loc}" >&2
    exit 2
    ;;
esac
