// Command rotarytables regenerates every table of the paper's evaluation
// (Section VIII, Tables I-VII), the Fig. 2 tapping-curve data, and the
// repository's timing-driven extension study (Table VIII).
//
// Usage:
//
//	rotarytables [-scale 0.2] [-ilp-budget 10s] [-circuits s9234,s5378] [-tables I,III,IV] [-timing] [-j 4]
//	rotarytables -metrics metrics.json -trace trace.txt -cpuprofile cpu.pprof
//
// Scale 1 runs the paper-size circuits (several minutes); the default scale
// runs the whole matrix in about a minute. Every flow run records solver
// counters and a span tree (the source of the CPU columns); -metrics /
// -trace print a telemetry table and write the per-circuit snapshots as
// JSON (-metrics) or indented text (-trace).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"rotaryclk/internal/exp"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/stop"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		scale    = flag.Float64("scale", 0.2, "benchmark shrink factor (1 = paper size)")
		budget   = flag.Duration("ilp-budget", 10*time.Second, "wall-clock budget for the generic ILP baseline (Table I)")
		ilpNodes = flag.Int("ilp-nodes", 0, "B&B node budget for the Table I ILP baseline (replaces -ilp-budget; deterministic)")
		subset   = flag.String("circuits", "", "comma-separated circuit subset (default: all five)")
		tables   = flag.String("tables", "I,II,III,IV,V,VI,VII,VIII,Fig2,Var,Trees,Rings", "comma-separated tables to regenerate (VIII/Var/Trees/Rings are the extension studies)")
		jobs     = flag.Int("j", 0, "parallel workers across circuits and kernels (0 = all cores, 1 = serial; identical tables either way)")
		timing   = flag.Bool("timing", false, "run the suite flows timing-driven (Tables II-VII report the reweighted placements; Table VIII always compares both modes)")
		strict   = flag.Bool("strict", false, "fail on the first flow stage error instead of recovering/degrading")
		deadline = flag.Duration("deadline", 0, "wall-clock budget for the whole run; past it flows degrade to their best snapshots (0 = none)")
		metrics  = flag.String("metrics", "", "write per-circuit metrics snapshots (solver counters + span tree) as JSON to this file")
		trace    = flag.String("trace", "", "write per-circuit metrics snapshots as indented text to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rotarytables:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "rotarytables:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProf == "" {
			return
		}
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rotarytables:", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "rotarytables:", err)
		}
	}()

	opt := exp.Options{
		Scale: *scale, ILPBudget: *budget, ILPNodes: *ilpNodes,
		Parallelism: *jobs, Strict: *strict, TimingDriven: *timing,
	}
	telemetry := *metrics != "" || *trace != ""
	if *deadline > 0 {
		tok, release := stop.WithTimeout(*deadline)
		defer release()
		opt.Stop = tok
	}
	if *subset != "" {
		opt.Circuits = strings.Split(*subset, ",")
	}
	want := map[string]bool{}
	for _, t := range strings.Split(*tables, ",") {
		want[strings.TrimSpace(strings.ToUpper(t))] = true
	}

	needRuns := want["II"] || want["III"] || want["IV"] || want["V"] || want["VI"] || want["VII"] ||
		want["VAR"] || want["TREES"] || telemetry
	var runs []*exp.CircuitRun
	if needRuns {
		var err error
		fmt.Fprintf(os.Stderr, "running both flows on the suite (scale %.2f)...\n", *scale)
		runs, err = exp.RunAll(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rotarytables:", err)
			return 1
		}
	}

	if want["I"] {
		rows, err := exp.TableI(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rotarytables:", err)
			return 1
		}
		fmt.Println(exp.RenderTableI(rows))
	}
	if want["II"] {
		fmt.Println(exp.RenderTableII(exp.TableII(runs)))
	}
	if want["III"] {
		fmt.Println(exp.RenderTableIII(exp.TableIII(runs)))
	}
	if want["IV"] {
		fmt.Println(exp.RenderTableIV(exp.TableIV(runs)))
	}
	if want["V"] {
		fmt.Println(exp.RenderTableV(exp.TableV(runs)))
	}
	if want["VI"] {
		fmt.Println(exp.RenderTableVI(exp.TableVI(runs)))
	}
	if want["VII"] {
		fmt.Println(exp.RenderTableVII(exp.TableVII(runs)))
	}
	if want["VIII"] {
		rows, err := exp.TableVIII(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rotarytables:", err)
			return 1
		}
		fmt.Println(exp.RenderTableVIII(rows))
	}
	if want["VAR"] {
		rows, err := exp.VariationStudy(runs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rotarytables:", err)
			return 1
		}
		fmt.Println(exp.RenderVariation(rows))
	}
	if want["TREES"] {
		rows, err := exp.LocalTreeStudy(runs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rotarytables:", err)
			return 1
		}
		fmt.Println(exp.RenderTrees(rows))
	}
	if want["RINGS"] {
		name := "s9234"
		if len(opt.Circuits) > 0 {
			name = opt.Circuits[0]
		}
		rows, err := exp.RingSweep(name, opt.Scale, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rotarytables:", err)
			return 1
		}
		fmt.Println(exp.RenderRings(name, rows))
	}
	if want["FIG2"] {
		f, err := exp.Fig2Data()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rotarytables:", err)
			return 1
		}
		fmt.Println(exp.RenderFig2(f))
	}

	if telemetry {
		fmt.Println(exp.RenderTelemetry(exp.TelemetryTable(runs)))
		if err := writeSnapshots(*metrics, *trace, runs); err != nil {
			fmt.Fprintln(os.Stderr, "rotarytables:", err)
			return 1
		}
	}
	return 0
}

// circuitSnapshots pairs the two flow snapshots of one circuit for export.
type circuitSnapshots struct {
	Flow *obs.Snapshot `json:"flow"`
	ILP  *obs.Snapshot `json:"ilp"`
}

func writeSnapshots(metricsPath, tracePath string, runs []*exp.CircuitRun) error {
	if metricsPath != "" {
		byName := make(map[string]circuitSnapshots, len(runs))
		for _, cr := range runs {
			byName[cr.Bench.Name] = circuitSnapshots{Flow: cr.Flow.Metrics, ILP: cr.ILPFlow.Metrics}
		}
		data, err := json.MarshalIndent(byName, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(metricsPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", metricsPath)
	}
	if tracePath != "" {
		var sb strings.Builder
		for _, cr := range runs {
			fmt.Fprintf(&sb, "=== %s (network flow) ===\n%s\n", cr.Bench.Name, cr.Flow.Metrics.Text())
			fmt.Fprintf(&sb, "=== %s (ILP) ===\n%s\n", cr.Bench.Name, cr.ILPFlow.Metrics.Text())
		}
		if err := os.WriteFile(tracePath, []byte(sb.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", tracePath)
	}
	return nil
}
