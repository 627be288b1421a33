// Command rotaryscale writes the scaling report (BENCH_scaling.json by
// convention) in one invocation:
//
//   - the size sweep: one audited core.Run of the Fig. 3 flow per size and
//     worker count (Parallelism 1 and GOMAXPROCS), every time read from the
//     run's spans (internal/bench.RunScaling);
//   - the ECO row: a 50k-cell base flow, then 20 random single-delta edits
//     through core.ApplyECO, each checked against a from-scratch arm and
//     timed against a full re-run (internal/bench.RunECOBench), which must
//     be at least 10x faster per edit.
//
// Nothing is written unless every row passes.
//
// Usage:
//
//	rotaryscale [-sizes 1024,2048,...] [-out BENCH_scaling.json] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"rotaryclk/internal/bench"
)

// ecoMinSpeedup is the required speedup of the mean ECO edit over a full
// re-run, for the default 50k-cell, 20-edit row.
const ecoMinSpeedup = 10

func main() {
	var (
		sizes = flag.String("sizes", "", "comma-separated cell counts (default geometric 1k..128k)")
		out   = flag.String("out", "BENCH_scaling.json", "output JSON path")
		seed  = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	opt := bench.ScalingOptions{Seed: *seed, Log: logf}
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

	rep, err := bench.RunScaling(opt)
	if err != nil {
		fatal(err)
	}
	pt, err := bench.RunECOBench(bench.ECOOptions{Seed: *seed, Log: logf})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("eco @ %d cells: %.1fx speedup (eco mean %.2f ms vs full re-run %.0f ms, %.2f%% dirty, checked)\n",
		pt.Cells, pt.Speedup, float64(pt.EcoMeanNS)/1e6, float64(pt.FullNS)/1e6, 100*pt.DirtyCellFrac)
	if pt.Speedup < ecoMinSpeedup {
		fatal(fmt.Errorf("eco speedup %.1fx below the required %dx", pt.Speedup, ecoMinSpeedup))
	}
	rep.ECO = []bench.ECOPoint{*pt}
	if err := rep.WriteJSON(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d sweep rows, 1 eco row)\n", *out, len(rep.Points))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rotaryscale:", err)
	os.Exit(1)
}
