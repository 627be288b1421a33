#!/bin/sh
# CI entry points for the repo, one subcommand per gate (usage below). This
# header is the one description of every gate; the Makefile targets point
# here.
#
# Every enumerated `go test -run` list in the serve, scaling, eco, place,
# timing, skew and assign gates goes through gotest below, which first
# checks that each alternative of the list (each name or prefix between
# the top-level |s) matches a test, benchmark or fuzz target of its
# package (`go test -list`). A list naming a deleted or renamed test then
# fails its gate instead of running fewer tests in silence.
#
#   scripts/ci.sh test    go build + gofmt -l + go vet + go test over every
#                         package (tier-1 gate)
#   scripts/ci.sh race    go test -race over every package (the par.For and
#                         par.Do sites: x/y axis solves, candidate rows,
#                         suite circuits and flow arms)
#   scripts/ci.sh fuzz    smoke-fuzz every Fuzz target (10s each) on top of
#                         the checked-in corpora under testdata/fuzz/
#   scripts/ci.sh serve   the stage-1 placement reuse tests under -race
#                         (jobs and ECO base builds that start from a
#                         spec's published placement answer exactly as
#                         from scratch, unclean stage-1 runs publish
#                         nothing, racing cold jobs publish once, racing
#                         identical jobs on a warm spec report equal
#                         counters, a job and an ECO request share one
#                         spec's template) and the ECO fork-ownership
#                         tests under -race (a panic after a committed
#                         edit drops the worker's forks, 96 concurrent
#                         requests on four workers' own forks answer as a
#                         fresh server does, identical requests on a new
#                         and a reverted fork report byte-equal counters),
#                         then an end-to-end daemon smoke over both
#                         endpoints: rotaryd under rotaryload (concurrent
#                         /v1/jobs requests twice over the same specs, the
#                         second pass on published stage-1 placements, and
#                         /v1/eco requests, zero failures), a deadline-bound
#                         oversized job that must degrade within its budget,
#                         and SIGTERM -> graceful drain -> exit 0
#   scripts/ci.sh oracle  run the differential-testing campaign
#                         (cmd/rotaryoracle): SEEDS random instances through
#                         every reference solver and metamorphic oracle,
#                         failing with minimized repros under
#                         testdata/repros/ on any violation (default 25
#                         seeds; SEEDS=200 is the acceptance depth)
#   scripts/ci.sh scaling the small sweep-size and degraded-run-refusal
#                         unit tests, the work gate (the sweep's spec at
#                         8k and 32k cells, -j 1: placer.cg.iters,
#                         placer.detailed.tried and skew.edge_visits per
#                         cell, assign.tap.queries and mcmf.settled per
#                         flip-flop, each at 32k within the factor of its
#                         8k value that TestWorkScaling states), then the
#                         race-enabled 50k-cell sweep size (an audited
#                         core.Run at Parallelism 1 and GOMAXPROCS, final
#                         quality bit-equal) under a wall-clock budget
#                         (SCALING_TIMEOUT, default 10m);
#                         `make scaling` (cmd/rotaryscale) is the one
#                         writer of BENCH_scaling.json rows
#   scripts/ci.sh eco     ECO gate: the CG kernel's stagnation test, the
#                         dirty-region solve against the reference serial
#                         CG, the in-component CG cancel tests (placer and
#                         eco.Apply), the scoped-STA tests (a cache
#                         updated over each edit's scope of cells and nets,
#                         which eco.Apply hands it, is bit-equal to a full
#                         Analyze after random edits and kind-only flips;
#                         ErrCycle on a loop-closing edit; Apply's
#                         scoped-from-the-first-edit and degraded cache
#                         contract, and a scratch apply that commits a
#                         full build, after which the next edit is scoped
#                         again), the signal-wirelength cache tests
#                         (random moves and pin edits over their scope;
#                         Apply's measured nets, net edit, rollback,
#                         degraded, scratch and forked states; every
#                         total bit-equal to SignalWL), the state-fork
#                         test (two concurrent forks of one base state,
#                         each over its own circuit clone and system,
#                         leave the base's positions, pins and caches
#                         alone and match fresh states) and the revert
#                         tests (200 random batches on one long-lived
#                         fork, each answer equal to a fresh fork's and
#                         each Revert restoring the base bit for bit; a
#                         stale Revert panics), under -race -count=3, the
#                         timing.sta.scope and eco.signalwl.scope oracle
#                         negative tests, the RandomDeltas tests (drawn
#                         sequences pinned by SHA-256 digests, every
#                         delta legal given its predecessors, the caller's
#                         circuit restored after a draw, a panicking one
#                         included), the clean oracle campaign (its
#                         ECO-vs-scratch checks fail on an incomplete
#                         scope), the shared-base /v1/eco
#                         concurrency test under -race (each worker
#                         applies and reverts on its own fork), the
#                         allocation budgets (mean bytes per edit over 100
#                         edits at 3k cells, and per request, apply plus
#                         revert, on one owned fork), one iteration of
#                         BenchmarkApplyECO/3k with -benchmem (an edit's
#                         ns/op, B/op, allocs/op and paths/op; run it with
#                         a larger -benchtime for a number), then the
#                         smoke: 20 random single-delta edits at
#                         20k cells through the incremental path, every
#                         edit proven equivalent to the from-scratch arm,
#                         mean edit latency at least 5x faster than a full
#                         re-run, STA sources re-propagated over all edits
#                         at most half of one full rebuild (ECO_TIMEOUT,
#                         default 15m); the 50k headline row is written
#                         by `make scaling`
#   scripts/ci.sh place   placement gate: every ^TestDetailed test under
#                         -race (the cached-box swap loop against the
#                         verbatim reference loop, bit for bit; the box
#                         bookkeeping cases) and the Global/Incremental
#                         worker-count determinism tests under -race (the
#                         concurrent x/y axis solves are the placer's only
#                         concurrent path), the CG kernel over one lane and
#                         two against its verbatim former copy, the CG
#                         cancellation tests and the spreading pass
#                         against its former copy, all under -race, the
#                         V-cycle tests (below-floor
#                         Global bit-identical to the flat loop at 1 and 8
#                         workers, coarsening invariants, cancellation and
#                         degenerate fallbacks), the binned MaxOverlap
#                         against the all-pairs reference loop (bit-equal
#                         on overlapping, legal and degenerate placements),
#                         the corrupt-site oracle negative test, one
#                         iteration of BenchmarkDetailed (the swap loop's
#                         ns/op, rescans/op and pruned/op; run it with a
#                         larger -benchtime for a number), one iteration
#                         each of BenchmarkCGSolve and BenchmarkGlobalPlace
#                         with -benchmem, then a non-race
#                         50k-cell core.Run + Audit smoke that must run
#                         stage 1 through the V-cycle
#                         (placer.ml.vcycles == 1), under a wall-clock
#                         budget (PLACE_TIMEOUT, default 120s)
#   scripts/ci.sh timing  timing-driven placement smoke: the STA
#                         propagation differential tests (Analyze and
#                         ExtractCritical bit-identical to their
#                         pre-refactor copies on 24 generated circuits,
#                         self-loops included), the scoped-STA tests (the
#                         cache after random edits and kind-only flips
#                         bit-equal to a full Analyze on the same corpus,
#                         ErrCycle on a loop-closing edit), the
#                         critical-path reweighting identity tests
#                         (feature off or boost disabled must be
#                         bit-identical to the base flow, at 1 and 8
#                         workers), the swallowed-STA-error
#                         surface test, and the Table VIII worst-slack
#                         acceptance run (improvement on >= 2 circuits)
#   scripts/ci.sh skew    difference-constraint kernel gate: the kernel vs
#                         the reference n+1-round loop (random raw, Fishburn
#                         and guard-band systems, bit-identical potentials),
#                         the early negative-cycle exit tests, the max-slack
#                         cycle iteration tests (known graphs, vs LP, vs
#                         Karp, linear memory at 10k flip-flops), the
#                         weighted-sum schedule recovery vs the reference
#                         residual Bellman-Ford (bit-identical distances),
#                         the max-slack and min-Delta oracle negative tests,
#                         and the golden tables
#   scripts/ci.sh assign  stage-3 assignment gate: the early-exit flow
#                         solver against its verbatim pre-CSR full-search
#                         container/heap copy (random tied, preloaded and
#                         circulation graphs; flows, cost bits and path
#                         counts equal, no more relaxations, a feasible
#                         flow with dual-feasible potentials; on untied
#                         graphs every residual bit-equal too), the search's
#                         exit at the sink (mcmf.settled), the typed heap's
#                         pop order against container/heap, the
#                         allocation-free augmenting paths, the cheapest-ring
#                         preload vs the zero-start reference solve (loose,
#                         tight, pinned, fallback, ladder and tied
#                         instances), the priced preload's dual feasibility
#                         under no, random, huge and stale prices, the ECO
#                         patch tests (any prices cost-equal to a cold
#                         solve, a 200-step chained patch sequence),
#                         candidate-row reuse (bit-equal to cold solves,
#                         identical across worker counts), the mcmf seeded
#                         start, negative-cost rejection and Push tests, the
#                         assignment and ECO oracle negative tests, the
#                         Section VI assignment LP (against the dense
#                         simplex, bit-equal to its verbatim pre-refactor
#                         copy), the dense simplex's random optimality
#                         certificates, the LP oracle check and its
#                         negative test, and the golden tables
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
set -eu

cd "$(dirname "$0")/.."

# listed PKG PATTERN fails unless each alternative of PATTERN's top-level
# alternation matches a name `go test -list` reports for PKG. A leading ^,
# a trailing $ and one pair of enclosing parentheses apply to every
# alternative; ^$ (run no tests) lists nothing and passes.
listed() {
    names="$(go test -list . "$1")"
    printf '%s\n' "$2" | awk '
        function encloses(r,    i, c, d) {
            d = 0
            for (i = 1; i <= length(r); i++) {
                c = substr(r, i, 1)
                if (c == "(") d++
                else if (c == ")" && --d == 0 && i < length(r)) return 0
            }
            return 1
        }
        {
            r = $0
            if (r == "^$") exit
            pre = ""; suf = ""
            if (substr(r, 1, 1) == "^") { pre = "^"; r = substr(r, 2) }
            if (substr(r, length(r)) == "$") { suf = "$"; r = substr(r, 1, length(r) - 1) }
            if (substr(r, 1, 1) == "(" && substr(r, length(r)) == ")" && encloses(r)) r = substr(r, 2, length(r) - 2)
            d = 0; from = 1
            for (i = 1; i <= length(r); i++) {
                c = substr(r, i, 1)
                if (c == "(") d++
                else if (c == ")") d--
                else if (c == "|" && d == 0) { print pre "(" substr(r, from, i - from) ")" suf; from = i + 1 }
            }
            print pre "(" substr(r, from) ")" suf
        }' | while IFS= read -r alt; do
        if ! printf '%s\n' "$names" | grep -Eq "$alt"; then
            echo "ci.sh: -run '$2' in $1: $alt matches no test" >&2
            exit 1
        fi
    done
}

# gotest ARGS... runs go test ARGS after listed checks the -run pattern in
# ARGS against the ./-prefixed package in ARGS.
gotest() {
    pkg="" pattern="" prev=""
    for a in "$@"; do
        case "$a" in ./*) pkg="$a" ;; esac
        if [ "$prev" = "-run" ]; then
            pattern="$a"
        fi
        prev="$a"
    done
    if [ -n "$pkg" ] && [ -n "$pattern" ]; then
        listed "$pkg" "$pattern"
    fi
    go test "$@"
}

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
    gotest -race ./internal/serve/ -run '^(TestPlacementReuse|TestPlacementNotPublishedFromUncleanStage1|TestPlacementConcurrentPublish|TestConcurrentDeterminism|TestTemplateSharedAcrossEndpoints)$' -count=1
    gotest -race ./internal/serve/ -run '^(TestFailureIsolation|TestECOConcurrentSharedBase|TestECOWarmBaseHit)$' -count=1
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
    # The same specs again: each job now starts from the stage-1 placement
    # the first pass published for its spec.
    "$bin/rotaryload" -addr "$addr" -n 12 -c 8 -cells 800 -iters 2 -seed 1
    "$bin/rotaryload" -addr "$addr" -eco -n 12 -c 4 -cells 800 -iters 2 -seed 1
    "$bin/rotaryload" -addr "$addr" -n 2 -c 2 -cells 20000 -iters 2 -deadline-ms 200 -max-p99-ms 5000 -seed 99
    kill -TERM "$pid"
    wait "$pid"
    echo "serve smoke: job + ECO load + deadline degradation + graceful drain ok"
    ;;
oracle)
    seeds="${SEEDS:-25}"
    go run ./cmd/rotaryoracle -seeds "$seeds" -v
    ;;
scaling)
    timeout="${SCALING_TIMEOUT:-10m}"
    gotest ./internal/bench/ -run '^(TestScalingPoint|TestScalingRefusesDegradedRun|TestWorkScaling)$' -count=1
    export ROTARY_SCALING_SMOKE=1
    gotest -race -timeout "$timeout" \
        -run '^TestScaling50k$' -count=1 -v ./internal/bench/
    ;;
eco)
    timeout="${ECO_TIMEOUT:-15m}"
    gotest ./internal/placer/ -run '^(TestCGKernelReportsStagnation|TestSolveDirtyMatchesReference|TestSolveDirtyCGCancel)$' -count=1 -v
    gotest ./internal/timing/ -run '^TestSTAUpdate' -count=1 -v
    gotest ./internal/eco/ -run '^(TestApplyDegradedOnDirtyCGCancel|TestApplySTACache|TestApplySignalWLCache|TestStateFork|TestSignalWLUpdate|TestRandomDeltas.*|TestCombReaches)$' -count=1 -v
    gotest -race ./internal/eco/ -run '^(TestStateFork|TestRevertRestoresBase|TestRevertStalePanics)$' -count=3 -v
    gotest ./internal/oracle/ -run '^(TestFaultSTAScopeDetected|TestFaultECOSignalWLDetected|TestCampaignClean)$' -count=1 -v
    gotest -race ./internal/serve/ -run '^TestECOConcurrentSharedBase$' -count=1
    gotest ./internal/core/ -run '^(TestApplyECOAllocBudget|TestOwnedForkRequestAllocBudget)$' -count=1 -v
    gotest -run '^$' -bench 'BenchmarkApplyECO/3k' -benchtime 1x -benchmem ./internal/core/
    gotest ./internal/bench/ -run '^TestECOBenchPoint$' -count=1
    export ROTARY_ECO_SMOKE=1
    gotest -timeout "$timeout" \
        -run '^TestECOSmoke20k$' -count=1 -v ./internal/bench/
    ;;
place)
    timeout="${PLACE_TIMEOUT:-120s}"
    gotest -race ./internal/placer/ -run '^(TestDetailed|Test(Global|Incremental)DeterministicAcrossWorkerCounts$|TestCGMatchesReference$|TestCGCancel|TestEqualizeMatchesReference$)' -count=1
    gotest ./internal/placer/ -run '^(TestMultilevel|TestVCycle|TestCoarsen|TestProjectOverlays|TestInterpolate|TestMaxOverlapMatchesReference$)' -count=1
    gotest ./internal/oracle/ -run '^TestFaultMLCorruptDetected$' -count=1
    gotest -run '^$' -bench '^BenchmarkDetailed$' -benchtime 1x ./internal/placer/
    gotest -run '^$' -bench '^(BenchmarkCGSolve|BenchmarkGlobalPlace)$' -benchtime 1x -benchmem ./internal/placer/
    export ROTARY_PLACE_SMOKE=1
    gotest -timeout "$timeout" \
        -run '^TestPlaceSmoke50k$' -count=1 -v ./internal/core/
    ;;
timing)
    gotest ./internal/timing/ -run '^(TestAnalyzeMatchesReference|TestExtractCriticalMatchesReference|TestSTAUpdate.*)$' -count=1 -v
    gotest ./internal/core/ -run '^(TestTiming|TestWorstSlack)' -count=1
    gotest ./internal/placer/ -run '^TestNetWeight' -count=1
    gotest ./internal/oracle/ -run '^TestFaultReweightDetected$' -count=1
    gotest -timeout 20m ./internal/exp/ -run '^(TestTimingSmoke|TestVarPairsSurfacesAnalysisError)$' -count=1 -v
    ;;
skew)
    gotest ./internal/skew/ -run '^(TestRelax|TestMinDelta|TestWarmStart|TestMaxSlack|TestWeightedSumMatchesResidualDistances$)' -count=1 -v
    gotest ./internal/oracle/ -run '^(TestMinCycleMean|TestMaxSlackMatchesKarp|TestFaultSkewDetected$|TestFaultSkewMinDeltaDetected$)' -count=1
    gotest ./internal/exp -run '^TestGolden' -count=1
    ;;
assign)
    gotest ./internal/assign/ -run '^(TestMinCostMatchesReference|TestPreloadDualFeasible|TestPatch|TestMinCostRowReuseBitEquality|TestMinMaxCapRowReuseBitEquality|TestAssignDeterministicAcrossWorkerCounts)' -count=1 -v
    gotest ./internal/mcmf/ -run '^(TestMinCostFlowMatchesReference|TestMinCostFlowMatchesReferenceUntied|TestSearchStopsAtSink|TestHeapMatchesContainerHeap|TestAugmentingPathsAllocateNothing|TestMinCostFlowFromSeedPotentials|TestMinCostFlowRejectsNegativeCost|TestNegativeCostFlowViaBellmanFord|TestNegativeCycleIsError|TestPushMovesCapacity|TestPushMisusePanics|TestResidualArcs)$' -count=1 -v
    gotest ./internal/oracle/ -run '^(TestFaultMcmfDetected|TestFaultECODetected)$' -count=1
    gotest ./internal/lp/ -run '^(TestAssignLP|TestQuickLP)' -count=1
    gotest ./internal/oracle/ -run '^(TestCheckAssignLPClean|TestFaultLPDetected)$' -count=1
    gotest ./internal/exp -run '^TestGolden' -count=1
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
    echo "usage: scripts/ci.sh {test|race|fuzz|serve|scaling|eco|oracle|place|timing|skew|assign|benchmark|golden|cover|loc}" >&2
    exit 2
    ;;
esac
