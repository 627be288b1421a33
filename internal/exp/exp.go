// Package exp regenerates every table and figure of the paper's evaluation
// (Section VIII) on the synthetic benchmark suite. Each TableX function
// returns structured rows; cmd/rotarytables renders them and bench_test.go
// wraps them in testing.B benchmarks.
//
// Absolute values depend on the synthetic substrate and calibration; the
// shapes the paper reports (who wins, by roughly what factor) are asserted
// in exp_test.go and recorded in EXPERIMENTS.md.
package exp

import (
	"fmt"
	"time"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/bench"
	"rotaryclk/internal/clocktree"
	"rotaryclk/internal/core"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/lp"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/par"
	"rotaryclk/internal/placer"
	"rotaryclk/internal/rotary"
	"rotaryclk/internal/stop"
	"rotaryclk/internal/timing"
	"rotaryclk/internal/variation"
)

// Options scales and budgets an experiment run.
type Options struct {
	// Scale shrinks the benchmark circuits (1 = paper size). Default 0.2,
	// which keeps the full table matrix under a couple of minutes.
	Scale float64
	// ILPBudget is the wall-clock budget for the generic B&B ILP baseline
	// of Table I (the paper used 10 hours; default 10 seconds).
	ILPBudget time.Duration
	// Circuits restricts the run to a subset of suite names (empty = all).
	Circuits []string
	// Parallelism bounds the workers of each circuit's paired flows
	// (RunAll, Table VIII), of Table I's circuits and, plumbed down, of the
	// per-flow parallel sites: 0 = GOMAXPROCS, 1 = serial. All results
	// except the reported CPU seconds are identical for every value.
	Parallelism int
	// Strict makes every flow run fail on the first stage error instead of
	// running the recovery policies (core.Config.Strict).
	Strict bool
	// ILPNodes replaces the wall-clock ILPBudget of Table I with a
	// branch-and-bound node budget when positive. Node budgets make the ILP
	// columns deterministic (wall-clock budgets are not), which is what the
	// golden-table harness needs.
	ILPNodes int
	// Stop cancels the whole experiment run cooperatively: it is threaded
	// into every flow (core.Config.Stop) and into the Table I ILP
	// baseline, so a fired token ends each in-flight solve within one
	// inner iteration. Non-strict flows degrade to their best snapshot;
	// Table I reports the incumbent the budget bought.
	Stop *stop.Token
	// TimingDriven turns on critical-path net reweighting
	// (core.Config.TimingDriven) in every suite flow run, so Tables II-VII
	// report the timing-driven placements. Table VIII ignores it: that
	// table always runs both arms to measure the mode itself.
	TimingDriven bool
}

func (o *Options) normalize() {
	if o.Scale <= 0 {
		o.Scale = 0.2
	}
	if o.ILPBudget <= 0 {
		o.ILPBudget = 10 * time.Second
	}
}

func (o *Options) suite() []bench.Circuit {
	var out []bench.Circuit
	for _, b := range bench.Suite {
		if len(o.Circuits) > 0 {
			found := false
			for _, n := range o.Circuits {
				if n == b.Name {
					found = true
					break
				}
			}
			if !found {
				continue
			}
		}
		out = append(out, b.Scale(o.Scale))
	}
	return out
}

// CircuitRun bundles everything the tables need for one circuit: the
// generated netlist statistics, the conventional clock-tree reference, and
// the flow results under both assignment formulations.
type CircuitRun struct {
	Bench   bench.Circuit
	Stats   netlist.Stats
	TreePL  float64 // avg source-sink path length of a conventional clock tree
	Flow    *core.Result
	ILPFlow *core.Result

	// FFPos are the converged flip-flop positions of the network-flow run
	// and VarPairs the sequentially adjacent pairs monitored by the
	// variability study (both indexed in flip-flop order).
	FFPos    []geom.Point
	VarPairs []variation.Pair
}

// runCircuit executes the network-flow and ILP flows on one benchmark
// circuit. The two flows operate on independently generated copies of the
// netlist, so with more than one worker they run concurrently.
func runCircuit(b bench.Circuit, opt Options) (*CircuitRun, error) {
	parallelism := opt.Parallelism
	cr := &CircuitRun{Bench: b}
	cfg := b.Config()
	cfg.Parallelism = parallelism
	cfg.Strict = opt.Strict
	cfg.Stop = opt.Stop
	cfg.TimingDriven = opt.TimingDriven
	cfgILP := cfg
	cfgILP.Assigner = core.ILP
	// One registry per flow: the two runs race on wall-clock but not on
	// each other's counters, and each Result.Metrics is self-contained —
	// the span tree behind the CPU columns and the TelemetryTable input.
	cfg.Obs = obs.NewRegistry()
	cfgILP.Obs = obs.NewRegistry()

	var flowErr, ilpErr error
	par.Do(parallelism,
		func() {
			c1, err := b.Generate()
			if err != nil {
				flowErr = err
				return
			}
			cr.Stats = c1.Stats()
			cr.Flow, err = core.Run(c1, cfg)
			if err != nil {
				flowErr = fmt.Errorf("exp: %s network-flow run: %w", b.Name, err)
				return
			}
			// Conventional clock-tree reference over the placed flip-flops,
			// and the state the extension studies (variation, local trees)
			// need.
			for _, id := range cr.Flow.FFCells {
				cr.FFPos = append(cr.FFPos, c1.Cells[id].Pos)
			}
			// PL reference: the exact zero-skew DME tree (the construction
			// style of the paper's [5]/[7]); in a zero-skew tree every
			// source-sink path has the same length.
			cr.TreePL = clocktree.ZSAvgSourceSinkPath(clocktree.BuildDME(cr.FFPos))
			cr.VarPairs = varPairs(c1, timing.FFIndex(len(c1.Cells), cr.Flow.FFCells), cr.Flow)
		},
		func() {
			c2, err := b.Generate()
			if err != nil {
				ilpErr = err
				return
			}
			cr.ILPFlow, err = core.Run(c2, cfgILP)
			if err != nil {
				ilpErr = fmt.Errorf("exp: %s ILP run: %w", b.Name, err)
			}
		})
	if flowErr != nil {
		return nil, flowErr
	}
	if ilpErr != nil {
		return nil, ilpErr
	}
	return cr, nil
}

// varPairs extracts the sequentially adjacent pairs the variability study
// monitors from the converged placement. An analysis failure — e.g. a
// combinational cycle in a zero-flip-flop circuit that the non-strict
// signal-only flow accepted — is surfaced as a flow event (the same
// discipline as the in-loop slack-refresh warning) instead of being
// silently swallowed into an empty pair list that quietly studies nothing.
func varPairs(c *netlist.Circuit, ffIdx []int, flow *core.Result) []variation.Pair {
	sta, err := timing.Analyze(c, timing.DefaultModel())
	if err != nil {
		flow.Events = append(flow.Events, core.StageEvent{
			Stage:  2,
			Kind:   core.Classify(err),
			Action: "variability timing analysis failed; variation study has no pairs",
			Err:    err,
		})
		return nil
	}
	var out []variation.Pair
	for _, p := range sta.Pairs {
		if p.From != p.To {
			out = append(out, variation.Pair{A: ffIdx[p.From], B: ffIdx[p.To]})
		}
	}
	return out
}

// RunAll executes both flows on the whole (scaled) suite, circuit by
// circuit; each circuit's two flows run concurrently (runCircuit). On
// error, the error of the earliest failing circuit is returned.
func RunAll(opt Options) ([]*CircuitRun, error) {
	opt.normalize()
	suite := opt.suite()
	out := make([]*CircuitRun, len(suite))
	for i, b := range suite {
		cr, err := runCircuit(b, opt)
		if err != nil {
			return nil, err
		}
		out[i] = cr
	}
	return out, nil
}

// RowI is one row of Table I: integrality gap and CPU of greedy rounding
// versus the budgeted generic ILP solver.
type RowI struct {
	Name      string
	GreedyIG  float64
	GreedyCPU float64 // seconds
	ILPIG     float64 // 0 when the solver produced no feasible solution
	ILPCPU    float64
	ILPStatus string
	ILPNoSol  bool
	LPOptimum float64
}

// TableI runs the min-max-capacitance assignment with greedy rounding and
// with the generic branch-and-bound ILP solver under a budget, on each
// circuit's initial placement and schedule (the protocol of Section VI).
// Circuits run in parallel; every column except the CPU seconds is
// independent of the worker count.
func TableI(opt Options) ([]RowI, error) {
	opt.normalize()
	suite := opt.suite()
	rows := make([]RowI, len(suite))
	errs := make([]error, len(suite))
	par.For(opt.Parallelism, len(suite), func(i int) {
		b := suite[i]
		c, err := b.Generate()
		if err != nil {
			errs[i] = err
			return
		}
		prob, err := assignProblem(c, b, opt.Parallelism)
		if err != nil {
			errs[i] = err
			return
		}
		prob.Stop = opt.Stop
		// Both arms are timed as spans on a per-circuit registry and read
		// back with SpanSeconds, the clock of every other stage time.
		reg := obs.NewRegistry()
		sp := reg.StartSpan("tableI.greedy")
		_, rel, err := assign.MinMaxCap(prob)
		sp.End()
		if err != nil {
			errs[i] = fmt.Errorf("exp: %s greedy rounding: %w", b.Name, err)
			return
		}

		ilpOpt := lp.ILPOptions{TimeLimit: opt.ILPBudget, Stop: opt.Stop}
		if opt.ILPNodes > 0 {
			// Node budgets are deterministic where wall-clock budgets are
			// not; the golden harness runs Table I this way.
			ilpOpt = lp.ILPOptions{MaxNodes: opt.ILPNodes, Stop: opt.Stop}
		}
		sp = reg.StartSpan("tableI.ilp")
		ilpA, ilpSol, err := assign.MinMaxCapILP(prob, ilpOpt)
		sp.End()
		if err != nil {
			errs[i] = fmt.Errorf("exp: %s ILP baseline: %w", b.Name, err)
			return
		}
		snap := reg.Snapshot()
		row := RowI{
			Name:      b.Name,
			GreedyIG:  rel.IG,
			GreedyCPU: snap.SpanSeconds("tableI.greedy"),
			ILPCPU:    snap.SpanSeconds("tableI.ilp"),
			ILPStatus: ilpSol.Status.String(),
			LPOptimum: rel.LPOpt,
		}
		if ilpA != nil && rel.LPOpt > 0 {
			row.ILPIG = ilpA.MaxCap / rel.LPOpt
		} else {
			row.ILPNoSol = true
		}
		rows[i] = row
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// assignProblem builds the stage-3 assignment instance from a fresh initial
// placement and max-slack schedule (the state in which Table I is measured).
func assignProblem(c *netlist.Circuit, b bench.Circuit, parallelism int) (*assign.Problem, error) {
	if err := placer.Global(c, placer.Options{Parallelism: parallelism}); err != nil {
		return nil, err
	}
	if err := placer.Legalize(c); err != nil {
		return nil, err
	}
	res, err := core.Run(c, core.Config{
		NumRings: b.Rings, MaxIters: 1, SkipInitialPlace: true, Parallelism: parallelism,
	})
	if err != nil {
		return nil, err
	}
	ffs := make([]assign.FF, len(res.FFCells))
	for i, id := range res.FFCells {
		ffs[i] = assign.FF{Cell: id, Pos: c.Cells[id].Pos, Target: res.Schedule[i]}
	}
	return &assign.Problem{Array: res.Array, FFs: ffs, Parallelism: parallelism}, nil
}

// RowII is one row of Table II: benchmark characteristics.
type RowII struct {
	Name    string
	Cells   int
	FFs     int
	Nets    int
	PL      float64 // avg source-sink path length, conventional tree (ours)
	Rings   int
	PaperPL float64
}

// TableII reports the benchmark characteristics, with the conventional
// clock-tree path length measured on an initial placement.
func TableII(runs []*CircuitRun) []RowII {
	var rows []RowII
	for _, cr := range runs {
		rows = append(rows, RowII{
			Name:    cr.Bench.Name,
			Cells:   cr.Stats.Cells,
			FFs:     cr.Stats.FlipFlops,
			Nets:    cr.Stats.Nets,
			PL:      cr.TreePL,
			Rings:   cr.Bench.Rings,
			PaperPL: cr.Bench.PaperPL,
		})
	}
	return rows
}

// RowIII is one row of Table III: the base case after stage 3.
type RowIII struct {
	Name        string
	AFD         float64
	TapWL       float64
	SignalWL    float64
	TotalWL     float64
	ClockPower  float64
	SignalPower float64
	TotalPower  float64
	CPU         float64
}

// TableIII reports the base-case metrics of the network-flow run.
func TableIII(runs []*CircuitRun) []RowIII {
	var rows []RowIII
	for _, cr := range runs {
		m := cr.Flow.Base
		place, opt := cr.Flow.CPUSeconds()
		rows = append(rows, RowIII{
			Name: cr.Bench.Name, AFD: m.AFD, TapWL: m.TapWL,
			SignalWL: m.SignalWL, TotalWL: m.TotalWL,
			ClockPower: m.ClockPower, SignalPower: m.SignalPower,
			TotalPower: m.TotalPower,
			CPU:        place + opt,
		})
	}
	return rows
}

// RowIV is one row of Table IV: the converged network-flow optimization with
// improvements over the base case.
type RowIV struct {
	Name      string
	AFD       float64
	TapWL     float64
	TapImp    float64 // fraction improved vs base (positive = better)
	SignalWL  float64
	SignalImp float64 // negative = signal WL grew (paper reports this)
	TotalWL   float64
	TotalImp  float64
	OptCPU    float64 // stages 2-5
	PlaceCPU  float64 // placer (the paper's "mPL" column)
	Iters     int
}

// TableIV reports the converged flow results.
func TableIV(runs []*CircuitRun) []RowIV {
	var rows []RowIV
	for _, cr := range runs {
		b, f := cr.Flow.Base, cr.Flow.Final
		place, opt := cr.Flow.CPUSeconds()
		rows = append(rows, RowIV{
			Name:      cr.Bench.Name,
			AFD:       f.AFD,
			TapWL:     f.TapWL,
			TapImp:    imp(b.TapWL, f.TapWL),
			SignalWL:  f.SignalWL,
			SignalImp: imp(b.SignalWL, f.SignalWL),
			TotalWL:   f.TotalWL,
			TotalImp:  imp(b.TotalWL, f.TotalWL),
			OptCPU:    opt,
			PlaceCPU:  place,
			Iters:     cr.Flow.Iterations,
		})
	}
	return rows
}

func imp(base, final float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - final) / base
}

// RowV is one row of Table V: max load capacitance, network flow vs ILP.
type RowV struct {
	Name    string
	FlowCap float64 // fF
	FlowAFD float64
	ILPAFD  float64
	AFDImp  float64 // negative: ILP increases AFD (paper reports this)
	ILPCap  float64
	CapImp  float64 // positive: ILP reduces max cap
	FlowWL  float64
	ILPWL   float64
	WLImp   float64
}

// TableV compares the two formulations on max load capacitance.
func TableV(runs []*CircuitRun) []RowV {
	var rows []RowV
	for _, cr := range runs {
		f, i := cr.Flow.Final, cr.ILPFlow.Final
		rows = append(rows, RowV{
			Name:    cr.Bench.Name,
			FlowCap: f.MaxCap, ILPCap: i.MaxCap, CapImp: imp(f.MaxCap, i.MaxCap),
			FlowAFD: f.AFD, ILPAFD: i.AFD, AFDImp: imp(f.AFD, i.AFD),
			FlowWL: f.TotalWL, ILPWL: i.TotalWL, WLImp: imp(f.TotalWL, i.TotalWL),
		})
	}
	return rows
}

// RowVI is one row of Table VI: power for both formulations vs the base.
type RowVI struct {
	Name                      string
	FlowClock, FlowClockImp   float64
	FlowSignal, FlowSignalImp float64
	FlowTotal, FlowTotalImp   float64
	ILPClock, ILPClockImp     float64
	ILPSignal, ILPSignalImp   float64
	ILPTotal, ILPTotalImp     float64
}

// TableVI reports power improvements of both formulations over the base.
func TableVI(runs []*CircuitRun) []RowVI {
	var rows []RowVI
	for _, cr := range runs {
		b := cr.Flow.Base
		f, i := cr.Flow.Final, cr.ILPFlow.Final
		rows = append(rows, RowVI{
			Name:      cr.Bench.Name,
			FlowClock: f.ClockPower, FlowClockImp: imp(b.ClockPower, f.ClockPower),
			FlowSignal: f.SignalPower, FlowSignalImp: imp(b.SignalPower, f.SignalPower),
			FlowTotal: f.TotalPower, FlowTotalImp: imp(b.TotalPower, f.TotalPower),
			ILPClock: i.ClockPower, ILPClockImp: imp(b.ClockPower, i.ClockPower),
			ILPSignal: i.SignalPower, ILPSignalImp: imp(b.SignalPower, i.SignalPower),
			ILPTotal: i.TotalPower, ILPTotalImp: imp(b.TotalPower, i.TotalPower),
		})
	}
	return rows
}

// RowVII is one row of Table VII: wirelength-capacitance product.
type RowVII struct {
	Name    string
	FlowWCP float64
	ILPWCP  float64
	Imp     float64
}

// TableVII compares the formulations on WCP (um * pF).
func TableVII(runs []*CircuitRun) []RowVII {
	var rows []RowVII
	for _, cr := range runs {
		rows = append(rows, RowVII{
			Name:    cr.Bench.Name,
			FlowWCP: cr.Flow.Final.WCP,
			ILPWCP:  cr.ILPFlow.Final.WCP,
			Imp:     imp(cr.Flow.Final.WCP, cr.ILPFlow.Final.WCP),
		})
	}
	return rows
}

// RowVIII is one row of Table VIII: the default flow versus the
// timing-driven mode (Config.TimingDriven) on worst slack, WCP, and total
// wirelength, both under the network-flow assignment.
type RowVIII struct {
	Name    string
	BaseWS  float64 // ps, worst slack of the default flow's final schedule
	TDWS    float64 // ps, worst slack timing-driven
	WSGain  float64 // ps, TDWS - BaseWS (positive = timing-driven better)
	BaseWCP float64 // um*pF
	TDWCP   float64
	WCPImp  float64 // fraction, positive = timing-driven lower WCP
	BaseWL  float64 // um, total wirelength
	TDWL    float64
	WLCost  float64 // fraction, negative = timing-driven spent wirelength
}

// TableVIII runs each circuit twice — the default flow and the timing-driven
// mode — and reports the worst-slack gain bought and the wirelength paid.
// Circuits run in turn; the two arms of each run on independently generated
// copies of the netlist, so with more than one worker they run
// concurrently. Every column is deterministic.
func TableVIII(opt Options) ([]RowVIII, error) {
	opt.normalize()
	suite := opt.suite()
	rows := make([]RowVIII, len(suite))
	for i, b := range suite {
		arm := func(timingDriven bool) (float64, core.Metrics, error) {
			c, err := b.Generate()
			if err != nil {
				return 0, core.Metrics{}, err
			}
			cfg := b.Config()
			cfg.Parallelism = opt.Parallelism
			cfg.Strict = opt.Strict
			cfg.Stop = opt.Stop
			cfg.TimingDriven = timingDriven
			res, err := core.Run(c, cfg)
			if err != nil {
				return 0, core.Metrics{}, err
			}
			ws, err := core.WorstSlack(c, cfg, res)
			if err != nil {
				return 0, core.Metrics{}, err
			}
			return ws, res.Final, nil
		}
		var baseWS, tdWS float64
		var baseM, tdM core.Metrics
		var baseErr, tdErr error
		par.Do(opt.Parallelism,
			func() { baseWS, baseM, baseErr = arm(false) },
			func() { tdWS, tdM, tdErr = arm(true) })
		if baseErr != nil {
			return nil, fmt.Errorf("exp: %s baseline run: %w", b.Name, baseErr)
		}
		if tdErr != nil {
			return nil, fmt.Errorf("exp: %s timing-driven run: %w", b.Name, tdErr)
		}
		rows[i] = RowVIII{
			Name:   b.Name,
			BaseWS: baseWS, TDWS: tdWS, WSGain: tdWS - baseWS,
			BaseWCP: baseM.WCP, TDWCP: tdM.WCP, WCPImp: imp(baseM.WCP, tdM.WCP),
			BaseWL: baseM.TotalWL, TDWL: tdM.TotalWL, WLCost: imp(baseM.TotalWL, tdM.TotalWL),
		}
	}
	return rows, nil
}

// Fig2 reproduces the tapping-delay curve of the paper's Fig. 2: the
// two-parabola t_f(x) curve of one flip-flop against one ring segment, plus
// the four target cases solved on it.
type Fig2 struct {
	Curve []rotary.CurvePoint
	Cases []Fig2Case
}

// Fig2Case is one of the four solution cases of Section III.
type Fig2Case struct {
	Label  string
	Target float64
	Tap    rotary.Tap
}

// Fig2Data builds the Fig. 2 reproduction.
func Fig2Data() (*Fig2, error) {
	params := rotary.DefaultParams()
	ring := &rotary.Ring{ID: 0, Center: geom.Pt(1000, 1000), Side: 1200, Dir: 1}
	ff := geom.Pt(1000, 250) // below the bottom segment
	out := &Fig2{Curve: rotary.TappingCurve(ring, params, ff, 0, 200)}
	lo, hi := out.Curve[0].Delay, out.Curve[0].Delay
	for _, cp := range out.Curve {
		if cp.Delay < lo {
			lo = cp.Delay
		}
		if cp.Delay > hi {
			hi = cp.Delay
		}
	}
	cases := []struct {
		label  string
		target float64
	}{
		{"case1 (below band: +kT shift)", lo - 0.3*params.Period},
		{"case2 (two solutions)", lo + 0.1*(hi-lo)},
		{"case3 (unique solution)", lo + 0.6*(hi-lo)},
		{"case4 (above band: snake)", hi + 2},
	}
	for _, cs := range cases {
		tap, err := rotary.SolveTap(ring, params, ff, cs.target)
		if err != nil {
			return nil, fmt.Errorf("exp: fig2 %s: %w", cs.label, err)
		}
		out.Cases = append(out.Cases, Fig2Case{Label: cs.label, Target: cs.target, Tap: tap})
	}
	return out, nil
}

// Fig1bPhases reproduces Fig. 1(b): the equal-phase points of a 13-ring
// array (the phase at the same relative location of every ring).
func Fig1bPhases() ([]float64, error) {
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(4000, 4000))
	arr, err := rotary.SquareArray(die, 13, 0.6, rotary.DefaultParams())
	if err != nil {
		return nil, err
	}
	phases := make([]float64, len(arr.Rings))
	for i, r := range arr.Rings {
		phases[i] = r.PhaseAt(0, arr.Params.Period)
	}
	return phases, nil
}
