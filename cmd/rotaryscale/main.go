// Command rotaryscale runs the solver-core size sweep: synthetic circuits at
// geometric cell counts through generate -> quadratic-system build -> global
// place -> min-max-capacitance assignment, recording ns/cell and allocs/cell
// per stage to a JSON report (BENCH_scaling.json by convention; rendered by
// `scripts/ci.sh benchcmp`).
//
// With -eco it instead runs the ECO edit-latency benchmark — a base flow at
// -eco-cells, then -eco-edits random edit batches through core.ApplyECO,
// each checked against a from-scratch arm and timed against a full
// from-scratch re-run — and merges the row into the report's eco section,
// leaving the sweep points untouched.
//
// Usage:
//
//	rotaryscale [-sizes 1024,4096,...] [-out BENCH_scaling.json] [-seed 1]
//	            [-spread 8] [-p 0]
//	rotaryscale -eco [-eco-cells 50000] [-eco-edits 20] [-eco-deltas 1]
//	            [-eco-min-speedup 0] [-out BENCH_scaling.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"rotaryclk/internal/bench"
)

func main() {
	var (
		sizes  = flag.String("sizes", "", "comma-separated cell counts (default geometric 1k..512k)")
		out    = flag.String("out", "BENCH_scaling.json", "output JSON path")
		seed   = flag.Int64("seed", 1, "generator seed")
		spread = flag.Int("spread", 8, "global-placement spreading rounds per point")
		par    = flag.Int("p", 0, "parallelism (0 = GOMAXPROCS)")

		ecoMode    = flag.Bool("eco", false, "run the ECO edit-latency benchmark instead of the sweep")
		ecoCells   = flag.Int("eco-cells", 50000, "circuit size for the ECO benchmark")
		ecoEdits   = flag.Int("eco-edits", 20, "sequential edit batches to apply")
		ecoDeltas  = flag.Int("eco-deltas", 1, "deltas per edit batch")
		ecoSpeedup = flag.Float64("eco-min-speedup", 0, "exit nonzero if the eco-vs-rerun speedup falls below this (0 = no bound)")
	)
	flag.Parse()

	if *ecoMode {
		os.Exit(runECO(*out, *seed, *par, *ecoCells, *ecoEdits, *ecoDeltas, *ecoSpeedup))
	}

	opt := bench.ScalingOptions{
		Seed:        *seed,
		SpreadIters: *spread,
		Parallelism: *par,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if *sizes != "" {
		for _, f := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "rotaryscale: bad size %q\n", f)
				os.Exit(2)
			}
			opt.Sizes = append(opt.Sizes, n)
		}
	}

	swept, err := bench.RunScaling(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rotaryscale:", err)
		os.Exit(1)
	}

	// The sweep replaces the recorded points but keeps the eco section of an
	// existing report.
	rep := swept
	var prior bench.ScalingReport
	if data, err := os.ReadFile(*out); err == nil && json.Unmarshal(data, &prior) == nil {
		rep.ECO = prior.ECO
	}
	if err := rep.WriteJSON(*out); err != nil {
		fmt.Fprintln(os.Stderr, "rotaryscale:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d points)\n", *out, len(rep.Points))
}

// runECO executes the edit-latency benchmark and merges the row into the
// report at path, preserving any recorded sweep points.
func runECO(path string, seed int64, par, cells, edits, deltas int, minSpeedup float64) int {
	pt, err := bench.RunECOBench(bench.ECOOptions{
		Cells:         cells,
		Edits:         edits,
		DeltasPerEdit: deltas,
		Seed:          seed,
		Parallelism:   par,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rotaryscale:", err)
		return 1
	}

	rep := &bench.ScalingReport{Schema: "rotaryclk-scaling/v1", Seed: seed, GoMaxProcs: runtime.GOMAXPROCS(0)}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, rep); err != nil {
			fmt.Fprintf(os.Stderr, "rotaryscale: existing %s does not parse: %v\n", path, err)
			return 1
		}
	}
	rep.SetECOPoint(*pt)
	if err := rep.WriteJSON(path); err != nil {
		fmt.Fprintln(os.Stderr, "rotaryscale:", err)
		return 1
	}
	fmt.Printf("eco @ %d cells: %.1fx speedup (eco mean %.2f ms vs full re-run %.0f ms, %.2f%% dirty, checked); merged into %s\n",
		pt.Cells, pt.Speedup, float64(pt.EcoMeanNS)/1e6, float64(pt.FullNS)/1e6,
		100*pt.DirtyCellFrac, path)
	if minSpeedup > 0 && pt.Speedup < minSpeedup {
		fmt.Fprintf(os.Stderr, "rotaryscale: speedup %.1fx below the required %.1fx\n", pt.Speedup, minSpeedup)
		return 1
	}
	return 0
}
