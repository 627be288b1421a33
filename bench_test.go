// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md section 4 for the experiment index) plus the
// ablation benches of DESIGN.md section 5.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// BenchmarkTableI and BenchmarkTableIII measure the cost of regenerating
// those tables at a reduced scale (the full-size tables are produced by
// cmd/rotarytables -scale 1) and report the table's headline quantity as a
// custom metric so the paper-shape can be read off the bench output. Tables
// II and IV-VII only re-render finished flow runs, so they get no benchmark;
// the golden tables (internal/exp) lock their numbers.
package rotaryclk

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/clocktree"
	"rotaryclk/internal/core"
	"rotaryclk/internal/exp"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/localtree"
	"rotaryclk/internal/lp"
	"rotaryclk/internal/mcmf"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/placer"
	"rotaryclk/internal/power"
	"rotaryclk/internal/rotary"
	"rotaryclk/internal/skew"
	"rotaryclk/internal/timing"
)

// benchOpt is the shared reduced-scale configuration for the table benches.
func benchOpt() exp.Options {
	return exp.Options{
		Scale:     0.12,
		ILPBudget: 2 * time.Second,
		Circuits:  []string{"s9234", "s5378"},
	}
}

var (
	runsOnce sync.Once
	runsVal  []*exp.CircuitRun
	runsErr  error
)

// sharedRuns executes both flows once and reuses the results across the
// table benches that only post-process them.
func sharedRuns(b *testing.B) []*exp.CircuitRun {
	b.Helper()
	runsOnce.Do(func() {
		runsVal, runsErr = exp.RunAll(benchOpt())
	})
	if runsErr != nil {
		b.Fatal(runsErr)
	}
	return runsVal
}

func BenchmarkTableI(b *testing.B) {
	opt := benchOpt()
	opt.Circuits = []string{"s9234"}
	var lastIG float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.TableI(opt)
		if err != nil {
			b.Fatal(err)
		}
		lastIG = rows[0].GreedyIG
	}
	b.ReportMetric(lastIG, "greedy-IG")
}

func BenchmarkTableIII(b *testing.B) {
	// Table III is the base-case flow itself: benchmark one full base run.
	var afd float64
	for i := 0; i < b.N; i++ {
		c, err := netlist.Generate(netlist.GenSpec{Name: "t3", Cells: 300, FlipFlops: 40, Seed: 9234})
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Run(c, core.Config{NumRings: 4, MaxIters: 1})
		if err != nil {
			b.Fatal(err)
		}
		afd = res.Base.AFD
	}
	b.ReportMetric(afd, "base-AFD-um")
}

func BenchmarkFig2Curve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig2Data(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1bPhases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig1bPhases(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVariationStudy(b *testing.B) {
	runs := sharedRuns(b)
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.VariationStudy(runs)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rows[0].Ratio
	}
	b.ReportMetric(ratio, "tree/rotary-sigma")
}

func BenchmarkLocalTreeStudy(b *testing.B) {
	runs := sharedRuns(b)
	b.ResetTimer()
	var saved float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.LocalTreeStudy(runs)
		if err != nil {
			b.Fatal(err)
		}
		saved = rows[0].SavedPct * 100
	}
	b.ReportMetric(saved, "tapWL-saved-%")
}

func BenchmarkRingSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.RingSweep("s9234", 0.12, []int{4, 9}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md section 5) ---

func ablationProblem(b *testing.B, nFF, k int) *assign.Problem {
	b.Helper()
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(4000, 4000))
	arr, err := rotary.NewArray(die, 4, 4, 0.6, rotary.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	ffs := make([]assign.FF, nFF)
	for i := range ffs {
		ffs[i] = assign.FF{
			Cell:   i,
			Pos:    geom.Pt(rng.Float64()*4000, rng.Float64()*4000),
			Target: rng.Float64() * 1000,
		}
	}
	return &assign.Problem{Array: arr, FFs: ffs, K: k}
}

// BenchmarkAblationAssigner compares the assignment strategies on one
// instance (total cost and max cap reported for the last run).
func BenchmarkAblationAssigner(b *testing.B) {
	b.Run("nearest", func(b *testing.B) {
		var tot float64
		for i := 0; i < b.N; i++ {
			a, err := assign.NearestOnly(ablationProblem(b, 120, 6))
			if err != nil {
				b.Fatal(err)
			}
			tot = a.Total
		}
		b.ReportMetric(tot, "tapWL-um")
	})
	b.Run("mincost-flow", func(b *testing.B) {
		var tot float64
		for i := 0; i < b.N; i++ {
			a, err := assign.MinCost(ablationProblem(b, 120, 6))
			if err != nil {
				b.Fatal(err)
			}
			tot = a.Total
		}
		b.ReportMetric(tot, "tapWL-um")
	})
	b.Run("greedy-rounding", func(b *testing.B) {
		var cap float64
		for i := 0; i < b.N; i++ {
			a, _, err := assign.MinMaxCap(ablationProblem(b, 120, 6))
			if err != nil {
				b.Fatal(err)
			}
			cap = a.MaxCap
		}
		b.ReportMetric(cap, "maxCap-fF")
	})
	b.Run("first-fit-decreasing", func(b *testing.B) {
		var cap float64
		for i := 0; i < b.N; i++ {
			a, err := assign.FirstFitDecreasing(ablationProblem(b, 120, 6))
			if err != nil {
				b.Fatal(err)
			}
			cap = a.MaxCap
		}
		b.ReportMetric(cap, "maxCap-fF")
	})
}

// BenchmarkAblationCandidateK sweeps the per-flip-flop candidate ring count.
func BenchmarkAblationCandidateK(b *testing.B) {
	for _, k := range []int{2, 4, 8, 16} {
		b.Run(map[int]string{2: "K=2", 4: "K=4", 8: "K=8", 16: "K=16"}[k], func(b *testing.B) {
			var tot float64
			for i := 0; i < b.N; i++ {
				a, err := assign.MinCost(ablationProblem(b, 120, k))
				if err != nil {
					b.Fatal(err)
				}
				tot = a.Total
			}
			b.ReportMetric(tot, "tapWL-um")
		})
	}
}

// BenchmarkAblationSkewSolver compares the graph-based max-slack cycle
// iteration with the LP formulation on the same constraint system.
func BenchmarkAblationSkewSolver(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 60
	var pairs []skew.SeqPair
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || rng.Float64() < 0.9 {
				continue
			}
			dmin := 50 + rng.Float64()*200
			pairs = append(pairs, skew.SeqPair{U: u, V: v, DMax: dmin + rng.Float64()*400, DMin: dmin})
		}
	}
	b.Run("graph-cycle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := skew.MaxSlack(nil, nil, n, pairs, 1000, 30, 15); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lp-simplex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := lp.NewProblem()
			vars := make([]int, n)
			for j := range vars {
				vars[j] = p.AddVar("", 0, -lp.Inf, lp.Inf)
			}
			mv := p.AddVar("M", -1, -lp.Inf, lp.Inf)
			for _, pr := range pairs {
				p.AddConstraint(lp.LE, 1000-pr.DMax-30,
					lp.Coef{Var: vars[pr.U], Val: 1}, lp.Coef{Var: vars[pr.V], Val: -1}, lp.Coef{Var: mv, Val: 1})
				p.AddConstraint(lp.GE, 15-pr.DMin,
					lp.Coef{Var: vars[pr.U], Val: 1}, lp.Coef{Var: vars[pr.V], Val: -1}, lp.Coef{Var: mv, Val: -1})
			}
			sol, err := p.SolveOpts(lp.Options{})
			if err != nil || sol.Status != lp.Optimal {
				b.Fatalf("%v %v", sol.Status, err)
			}
		}
	})
}

// BenchmarkAblationPseudoWeight sweeps the stage-6 pull strength.
func BenchmarkAblationPseudoWeight(b *testing.B) {
	for _, w := range []float64{1, 4, 16} {
		name := map[float64]string{1: "w=1", 4: "w=4", 16: "w=16"}[w]
		b.Run(name, func(b *testing.B) {
			var imp float64
			for i := 0; i < b.N; i++ {
				c, err := netlist.Generate(netlist.GenSpec{Name: "pw", Cells: 300, FlipFlops: 40, Seed: 3})
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.Run(c, core.Config{NumRings: 4, MaxIters: 3, PseudoWeight: w})
				if err != nil {
					b.Fatal(err)
				}
				imp = (res.Base.TapWL - res.Final.TapWL) / res.Base.TapWL * 100
			}
			b.ReportMetric(imp, "tapWL-imp-%")
		})
	}
}

// BenchmarkAblationWireModel compares the HPWL and Steiner signal-net
// capacitance models on the same placed circuit.
func BenchmarkAblationWireModel(b *testing.B) {
	c, err := netlist.Generate(netlist.GenSpec{Name: "wm", Cells: 600, FlipFlops: 80, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	if err := placer.Global(c, placer.Options{}); err != nil {
		b.Fatal(err)
	}
	pp := power.DefaultParams()
	b.Run("hpwl", func(b *testing.B) {
		var p float64
		for i := 0; i < b.N; i++ {
			p = pp.SignalFromWL(c, c.SignalWL()).Power
		}
		b.ReportMetric(p, "signalP-mW")
	})
	b.Run("steiner", func(b *testing.B) {
		var p float64
		for i := 0; i < b.N; i++ {
			p = pp.SignalSteiner(c).Power
		}
		b.ReportMetric(p, "signalP-mW")
	})
}

// BenchmarkZeroSkewTree measures the zero-skew construction and reports its
// wirelength overhead versus the unbalanced pairing tree.
func BenchmarkZeroSkewTree(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	sinks := make([]geom.Point, 256)
	for i := range sinks {
		sinks[i] = geom.Pt(rng.Float64()*5000, rng.Float64()*5000)
	}
	var overhead float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zs := clocktree.ZSTotalWL(clocktree.BuildDME(sinks))
		plain := clocktree.TotalWL(clocktree.Build(sinks))
		overhead = (zs/plain - 1) * 100
	}
	b.ReportMetric(overhead, "ZS-WL-overhead-%")
}

// --- Substrate micro-benches ---

func BenchmarkPlacerGlobal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := netlist.Generate(netlist.GenSpec{Name: "pg", Cells: 1000, FlipFlops: 120, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := placer.Global(c, placer.Options{}); err != nil {
			b.Fatal(err)
		}
		if err := placer.Legalize(c); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
	}
}

func BenchmarkTimingAnalyze(b *testing.B) {
	c, err := netlist.Generate(netlist.GenSpec{Name: "ta", Cells: 2000, FlipFlops: 250, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	m := timing.DefaultModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timing.Analyze(c, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTapSolver(b *testing.B) {
	ring := &rotary.Ring{Center: geom.Pt(500, 500), Side: 400, Dir: 1}
	params := rotary.DefaultParams()
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ff := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		if _, err := rotary.SolveTap(ring, params, ff, rng.Float64()*1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinCostFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := assign.MinCost(ablationProblem(b, 200, 6)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimplexAssignmentLP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := assign.MinMaxCap(ablationProblem(b, 150, 5)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWeightedSumCirculation(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	n := 200
	var cons []skew.DiffConstraint
	for u := 0; u < n; u++ {
		for t := 0; t < 4; t++ {
			v := rng.Intn(n)
			if v == u {
				continue
			}
			cons = append(cons, skew.DiffConstraint{U: u, V: v, Bound: 50 + rng.Float64()*400})
		}
	}
	targets := make([]float64, n)
	weights := make([]float64, n)
	for i := range targets {
		targets[i] = rng.Float64() * 1000
		weights[i] = 1 + rng.Float64()*100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := skew.WeightedSum(nil, nil, n, cons, targets, weights); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMCMFRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := mcmf.NewGraph(200)
		for e := 0; e < 1500; e++ {
			u, v := rng.Intn(199), 1+rng.Intn(199)
			if u == v {
				continue
			}
			g.AddArc(u, v, 1+rng.Intn(4), float64(rng.Intn(50)))
		}
		if _, _, err := g.MinCostMaxFlow(0, 199); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLocalTreeRadius sweeps the clustering radius of the
// shared local-tree construction (Section IX future work).
func BenchmarkAblationLocalTreeRadius(b *testing.B) {
	runs := sharedRuns(b)
	cr := runs[0]
	for _, frac := range []float64{0.125, 0.25, 0.5} {
		name := map[float64]string{0.125: "r=side/8", 0.25: "r=side/4", 0.5: "r=side/2"}[frac]
		radius := cr.Flow.Array.Rings[0].Side * frac
		b.Run(name, func(b *testing.B) {
			var saved float64
			for i := 0; i < b.N; i++ {
				res, err := localtree.Build(cr.Flow.Array, cr.Flow.Assign, cr.FFPos, cr.Flow.Schedule,
					localtree.Options{Radius: radius})
				if err != nil {
					b.Fatal(err)
				}
				saved = res.Saved / res.BaseWL * 100
			}
			b.ReportMetric(saved, "tapWL-saved-%")
		})
	}
}
