// Command rotaryflow runs the integrated placement and skew optimization
// flow on one benchmark circuit (or a .bench netlist) and prints the paper's
// metrics before and after the pseudo-net iterations.
//
// Usage:
//
//	rotaryflow -circuit s9234 [-scale 0.25] [-assigner flow|ilp] [-objective delta|sum] [-timing] [-j 4]
//	rotaryflow -bench path/to/circuit.bench -rings 16
//	rotaryflow -circuit s9234 -metrics metrics.json -trace trace.txt -cpuprofile cpu.pprof
//
// The flow always records solver counters and a per-stage span tree; the
// span tree is the source of the printed CPU split. -metrics / -trace write
// that snapshot as JSON (-metrics) or indented text (-trace); "-" writes to
// stdout. The snapshots are written even when the flow degrades or fails,
// so a stuck run can be diagnosed from its spans.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"rotaryclk/internal/bench"
	"rotaryclk/internal/core"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/report"
	"rotaryclk/internal/stop"
	"rotaryclk/internal/viz"
)

// writeSVG renders the flow result.
func writeSVG(path string, c *netlist.Circuit, res *core.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	s := viz.NewScene(c.Die)
	s.AddCircuit(c)
	s.AddArray(res.Array)
	ffPos := make([]geom.Point, len(res.FFCells))
	for i, id := range res.FFCells {
		ffPos[i] = c.Cells[id].Pos
	}
	s.AddTaps(res.Assign, ffPos)
	_, err = s.WriteTo(f)
	return err
}

// writeOut writes data to path, with "-" meaning stdout.
func writeOut(path string, data []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		circuit   = flag.String("circuit", "s9234", "suite circuit name (Table II)")
		benchFile = flag.String("bench", "", "ISCAS89 .bench file (overrides -circuit)")
		scale     = flag.Float64("scale", 1.0, "shrink factor for the suite circuit")
		rings     = flag.Int("rings", 0, "rotary rings (default: the suite's Table II value)")
		assigner  = flag.String("assigner", "flow", "stage-3 formulation: flow | ilp")
		objective = flag.String("objective", "delta", "stage-4 objective: delta | sum")
		iters     = flag.Int("iters", 5, "max stage 3-6 iterations")
		svgOut    = flag.String("svg", "", "write the final placement + rings + taps as SVG to this file")
		jobs      = flag.Int("j", 0, "parallel workers for the flow kernels (0 = all cores, 1 = serial; results identical)")
		timing    = flag.Bool("timing", false, "timing-driven mode: reweight critical-path nets in the re-optimization loop")
		strict    = flag.Bool("strict", false, "fail on the first stage error instead of recovering/degrading")
		deadline  = flag.Duration("deadline", 0, "wall-clock budget for the flow; past it the run degrades to its best snapshot (0 = none)")
		metrics   = flag.String("metrics", "", "write the metrics snapshot (solver counters + span tree) as JSON to this file (\"-\" = stdout)")
		trace     = flag.String("trace", "", "write the metrics snapshot as indented text to this file (\"-\" = stdout)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rotaryflow:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "rotaryflow:", err)
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
			fmt.Fprintln(os.Stderr, "rotaryflow:", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "rotaryflow:", err)
		}
	}()

	c, cfg, err := load(*circuit, *benchFile, *scale, *rings)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rotaryflow:", err)
		return 1
	}
	cfg.MaxIters = *iters
	cfg.Parallelism = *jobs
	cfg.TimingDriven = *timing
	cfg.Strict = *strict
	if *deadline > 0 {
		tok, release := stop.WithTimeout(*deadline)
		defer release()
		cfg.Stop = tok
	}
	switch *assigner {
	case "flow":
	case "ilp":
		cfg.Assigner = core.ILP
	default:
		fmt.Fprintf(os.Stderr, "rotaryflow: unknown assigner %q\n", *assigner)
		return 2
	}
	switch *objective {
	case "delta":
	case "sum":
		cfg.Objective = core.WeightedSum
	default:
		fmt.Fprintf(os.Stderr, "rotaryflow: unknown objective %q\n", *objective)
		return 2
	}
	cfg.Obs = obs.NewRegistry()
	if *metrics != "" || *trace != "" {
		// The registry snapshot (not Result.Metrics) backs the export so the
		// spans are written even on error exits; the deferred root End in
		// core.Run guarantees they are closed.
		defer func() {
			snap := cfg.Obs.Snapshot()
			if *metrics != "" {
				if err := writeOut(*metrics, snap.JSON()); err != nil {
					fmt.Fprintln(os.Stderr, "rotaryflow:", err)
				}
			}
			if *trace != "" {
				if err := writeOut(*trace, []byte(snap.Text())); err != nil {
					fmt.Fprintln(os.Stderr, "rotaryflow:", err)
				}
			}
		}()
	}

	st := c.Stats()
	fmt.Printf("%s: %d cells, %d flip-flops, %d nets, %d rings, assigner=%s\n\n",
		c.Name, st.Cells, st.FlipFlops, st.Nets, cfg.NumRings, cfg.Assigner)

	res, err := core.Run(c, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rotaryflow:", err)
		var se *core.StageError
		if errors.As(err, &se) {
			fmt.Fprintf(os.Stderr, "rotaryflow: failure kind: %s (stage %d)\n", se.Kind, se.Stage)
		}
		return 1
	}
	for _, ev := range res.Events {
		fmt.Fprintln(os.Stderr, "rotaryflow: recovery:", ev)
	}
	if res.Degraded {
		fmt.Fprintln(os.Stderr, "rotaryflow: DEGRADED result: re-optimization stopped early; metrics are the best snapshot reached")
	}
	if err := core.Audit(c, cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "rotaryflow: AUDIT FAILED:", err)
		return 1
	}

	t := report.New("flow metrics (micrometers, femtofarads, milliwatts)",
		"stage", "AFD", "tapWL", "signalWL", "totalWL", "maxCap", "clockP", "signalP", "totalP")
	rowOf := func(stage string, m core.Metrics) {
		t.Row(stage, m.AFD, m.TapWL, m.SignalWL, m.TotalWL, m.MaxCap, m.ClockPower, m.SignalPower, m.TotalPower)
	}
	rowOf("base (stage 3)", res.Base)
	for i := 1; i < len(res.PerIter); i++ {
		rowOf(fmt.Sprintf("iteration %d", i), res.PerIter[i])
	}
	rowOf("final", res.Final)
	fmt.Println(t)

	if *svgOut != "" {
		if err := writeSVG(*svgOut, c, res); err != nil {
			fmt.Fprintln(os.Stderr, "rotaryflow:", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *svgOut)
	}

	fmt.Printf("max slack M* = %.1f ps\n", res.MaxSlack)
	if *timing {
		ws, err := core.WorstSlack(c, cfg, res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rotaryflow: worst slack:", err)
			return 1
		}
		fmt.Printf("worst slack  = %.1f ps\n", ws)
	}
	// A deadline-degraded partial result can have a zero base (nothing was
	// assigned); improvement ratios would print NaN.
	if res.Base.TapWL > 0 {
		fmt.Printf("tapping WL improvement: %s\n", report.Percent((res.Base.TapWL-res.Final.TapWL)/res.Base.TapWL))
	}
	if res.Base.TotalWL > 0 {
		fmt.Printf("total WL improvement:   %s\n", report.Percent((res.Base.TotalWL-res.Final.TotalWL)/res.Base.TotalWL))
	}
	place, opt := res.CPUSeconds()
	fmt.Printf("CPU: placement %.2fs, optimization %.2fs\n", place, opt)
	return 0
}

func load(name, benchFile string, scale float64, rings int) (*netlist.Circuit, core.Config, error) {
	if benchFile != "" {
		f, err := os.Open(benchFile)
		if err != nil {
			return nil, core.Config{}, err
		}
		defer f.Close()
		c, err := netlist.ParseBench(benchFile, f)
		if err != nil {
			return nil, core.Config{}, err
		}
		if err := netlist.SizePhysical(c, 0); err != nil {
			return nil, core.Config{}, err
		}
		cfg := core.Config{NumRings: rings}
		if rings <= 0 {
			cfg.NumRings = 16
		}
		return c, cfg, nil
	}
	b, err := bench.ByName(name)
	if err != nil {
		return nil, core.Config{}, err
	}
	b = b.Scale(scale)
	c, err := b.Generate()
	if err != nil {
		return nil, core.Config{}, err
	}
	cfg := b.Config()
	if rings > 0 {
		cfg.NumRings = rings
	}
	return c, cfg, nil
}
