package exp

import (
	"fmt"

	"rotaryclk/internal/report"
)

// Render functions turn each table's rows into the exact ASCII block that
// cmd/rotarytables prints (sans the trailing newline fmt.Println adds). They
// live here, not in the command, so the golden-table regression harness locks
// the same bytes the CLI emits.

// RenderTableI renders the integrality-gap comparison.
func RenderTableI(rows []RowI) string {
	t := report.New("Table I: integrality gap, greedy rounding vs generic ILP solver",
		"circuit", "greedy IG", "greedy CPU(s)", "ILP IG", "ILP CPU(s)", "ILP status")
	for _, r := range rows {
		ig := "-"
		if !r.ILPNoSol {
			ig = report.FormatFloat(r.ILPIG)
		}
		t.Row(r.Name, r.GreedyIG, fmt.Sprintf("%.2f", r.GreedyCPU), ig,
			fmt.Sprintf("%.2f", r.ILPCPU), r.ILPStatus)
	}
	return t.String()
}

// RenderTableII renders the benchmark characteristics.
func RenderTableII(rows []RowII) string {
	t := report.New("Table II: test cases (PL = avg source-sink path in conventional clock trees)",
		"circuit", "#cells", "#FFs", "#nets", "PL(um)", "paper PL", "#rings")
	for _, r := range rows {
		t.Row(r.Name, r.Cells, r.FFs, r.Nets, r.PL, r.PaperPL, r.Rings)
	}
	return t.String()
}

// RenderTableIII renders the base-case metrics.
func RenderTableIII(rows []RowIII) string {
	t := report.New("Table III: base case (wirelength um, power mW)",
		"circuit", "AFD", "tap WL", "signal WL", "total WL", "clock P", "signal P", "total P", "CPU(s)")
	for _, r := range rows {
		t.Row(r.Name, r.AFD, r.TapWL, r.SignalWL, r.TotalWL, r.ClockPower, r.SignalPower, r.TotalPower,
			fmt.Sprintf("%.1f", r.CPU))
	}
	return t.String()
}

// RenderTableIV renders the converged network-flow results.
func RenderTableIV(rows []RowIV) string {
	t := report.New("Table IV: network-flow optimization (improvements vs base case)",
		"circuit", "AFD", "tap WL", "imp", "signal WL", "imp", "total WL", "imp", "opt CPU(s)", "place CPU(s)")
	for _, r := range rows {
		t.Row(r.Name, r.AFD, r.TapWL, report.Percent(r.TapImp),
			r.SignalWL, report.Percent(r.SignalImp),
			r.TotalWL, report.Percent(r.TotalImp),
			fmt.Sprintf("%.1f", r.OptCPU), fmt.Sprintf("%.1f", r.PlaceCPU))
	}
	return t.String()
}

// RenderTableV renders the max-load-capacitance comparison.
func RenderTableV(rows []RowV) string {
	t := report.New("Table V: max load capacitance (fF), network flow vs ILP formulation",
		"circuit", "flow cap", "flow AFD", "ILP AFD", "AFD imp", "ILP cap", "cap imp", "ILP total WL", "WL imp")
	for _, r := range rows {
		t.Row(r.Name, r.FlowCap, r.FlowAFD, r.ILPAFD, report.Percent(r.AFDImp),
			r.ILPCap, report.Percent(r.CapImp), r.ILPWL, report.Percent(r.WLImp))
	}
	return t.String()
}

// RenderTableVI renders the power comparison.
func RenderTableVI(rows []RowVI) string {
	t := report.New("Table VI: power (mW), both formulations vs base case",
		"circuit", "flow clk", "imp", "flow sig", "imp", "flow tot", "imp",
		"ILP clk", "imp", "ILP sig", "imp", "ILP tot", "imp")
	for _, r := range rows {
		t.Row(r.Name,
			r.FlowClock, report.Percent(r.FlowClockImp),
			r.FlowSignal, report.Percent(r.FlowSignalImp),
			r.FlowTotal, report.Percent(r.FlowTotalImp),
			r.ILPClock, report.Percent(r.ILPClockImp),
			r.ILPSignal, report.Percent(r.ILPSignalImp),
			r.ILPTotal, report.Percent(r.ILPTotalImp))
	}
	return t.String()
}

// RenderTableVII renders the wirelength-capacitance product comparison.
func RenderTableVII(rows []RowVII) string {
	t := report.New("Table VII: wirelength-capacitance product (um*pF)",
		"circuit", "network flow WCP", "ILP WCP", "imp")
	for _, r := range rows {
		t.Row(r.Name, r.FlowWCP, r.ILPWCP, report.Percent(r.Imp))
	}
	return t.String()
}

// RenderTableVIII renders the timing-driven placement comparison.
func RenderTableVIII(rows []RowVIII) string {
	t := report.New("Table VIII: timing-driven placement (worst slack ps, WCP um*pF, total WL um)",
		"circuit", "base WS", "TD WS", "WS gain", "base WCP", "TD WCP", "imp", "base WL", "TD WL", "WL cost")
	for _, r := range rows {
		t.Row(r.Name,
			fmt.Sprintf("%.1f", r.BaseWS), fmt.Sprintf("%.1f", r.TDWS), fmt.Sprintf("%.1f", r.WSGain),
			r.BaseWCP, r.TDWCP, report.Percent(r.WCPImp),
			r.BaseWL, r.TDWL, report.Percent(r.WLCost))
	}
	return t.String()
}

// RenderVariation renders the variability study.
func RenderVariation(rows []RowVar) string {
	t := report.New("Variability study (Section I motivation): skew deviation sigma (ps)",
		"circuit", "rotary sigma", "tree sigma", "tree/rotary", "rotary max", "tree max")
	for _, r := range rows {
		t.Row(r.Name, r.RotSigma, r.TreeSigma, r.Ratio, r.RotMax, r.TreeMax)
	}
	return t.String()
}

// RenderTrees renders the local-tree study.
func RenderTrees(rows []RowTree) string {
	t := report.New("Local-tree study (Section IX future work): shared trunks vs individual stubs",
		"circuit", "stub WL (um)", "tree WL (um)", "saved", "clusters")
	for _, r := range rows {
		t.Row(r.Name, r.BaseWL, r.TreeWL, report.Percent(r.SavedPct), r.Clusters)
	}
	return t.String()
}

// RenderRings renders the ring-count sweep for one circuit.
func RenderRings(name string, rows []RowRings) string {
	t := report.New(fmt.Sprintf("Ring-count sweep on %s (Section IX future work)", name),
		"#rings", "tap WL", "signal WL", "max cap", "WCP", "best")
	for _, r := range rows {
		mark := ""
		if r.Best {
			mark = "<== best"
		}
		t.Row(r.Rings, r.TapWL, r.SignalWL, r.MaxCap, r.WCP, mark)
	}
	return t.String()
}

// RenderFig2 renders the tapping-delay curve summary and the four cases.
func RenderFig2(f *Fig2) string {
	t := report.New("Fig. 2: tapping-delay curve t_f(x) (20-point summary of 201 samples)",
		"x (um)", "t_f(x) (ps)", "stub (um)")
	for i := 0; i < len(f.Curve); i += len(f.Curve) / 20 {
		cp := f.Curve[i]
		t.Row(cp.X, cp.Delay, cp.Stub)
	}
	t2 := report.New("Fig. 2: the four target cases", "case", "target (ps)", "stub (um)", "periods", "snaked")
	for _, cs := range f.Cases {
		t2.Row(cs.Label, cs.Target, cs.Tap.WireLen, cs.Tap.Periods, cs.Tap.Snaked)
	}
	return t.String() + "\n" + t2.String()
}

// RenderTelemetry renders the per-circuit solver-effort table.
func RenderTelemetry(rows []RowT) string {
	t := report.New("Telemetry: solver effort per circuit (seconds are nondeterministic)",
		"circuit", "CG solves", "CG iters", "MCMF paths", "tap queries", "ILP pivots", "flow s", "ILP s")
	for _, r := range rows {
		t.Row(r.Name, r.CGSolves, r.CGIters, r.MCMFPaths, r.TapQueries, r.Pivots,
			fmt.Sprintf("%.2f", r.FlowSec), fmt.Sprintf("%.2f", r.ILPSec))
	}
	return t.String()
}
