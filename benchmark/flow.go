package main

import (
	"fmt"
	"time"

	"rotaryclk/internal/bench"
	"rotaryclk/internal/core"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/timing"
)

// sizes fixes every workload's input sizes and the nominal time of one
// operation on a 2-core x86 container, which sets the operation count a
// given -seconds buys (see ops).
type sizes struct {
	suiteScale float64       // bench.Circuit.Scale of the Table II circuits; 1 = paper scale
	suitePass  time.Duration // one pass over suiteCircuits

	blockCells, blockFFs int // place: one generated block
	blockFlow            time.Duration
	warmCells, warmFFs   int // place: the warm-up block

	ecoCells, ecoFFs int // eco: the base design the edits apply to
	ecoEdit          time.Duration

	jobCells, jobFFs int // serve: every job spec and the ECO base
}

var full = sizes{
	suiteScale: 1, suitePass: 1500 * time.Millisecond,
	blockCells: 5000, blockFFs: 50, blockFlow: 2300 * time.Millisecond,
	warmCells: 1000, warmFFs: 10,
	ecoCells: 3000, ecoFFs: 300, ecoEdit: 14 * time.Millisecond,
	jobCells: 1500, jobFFs: 150,
}

// suiteCircuits are the Table II circuits whose paper-scale flow fits a
// run several times over. s38417 (about 10 s a flow on 2 cores) does not.
var suiteCircuits = []string{"s9234", "s5378", "s15850"}

// setupReps is how many times each workload sets up; setup_s is the median.
const setupReps = 5

// flowIters is the stage 3-6 iteration cap of every flow the benchmark
// runs. At 2 the convergence test can never end the loop early, so every
// flow does the same number of iterations whatever its input, and the
// run-to-run spread measures the code rather than where each seed happens
// to converge.
const flowIters = 2

// flowJob is one core.Run input.
type flowJob struct {
	c   *netlist.Circuit
	cfg core.Config
}

// flowInputs are one set-up of a flow workload: the warm-up flow and the
// timed operations, each a group of flows timed together.
type flowInputs struct {
	warm flowJob
	ops  [][]flowJob
}

// runSuite times passes over the Table II circuits. Pass p of seed s shifts
// every generator seed by 1000*(s-1)+p, so seed 1's first pass is exactly
// Table II and every pass of a run is a different input.
func runSuite(o options) (*report, error) {
	n := ops(o.seconds, o.size.suitePass)
	return runFlows(o, func(tr *tracer) (*flowInputs, error) {
		gen := func(name string, shift int64) (flowJob, error) {
			b, err := bench.ByName(name)
			if err != nil {
				return flowJob{}, err
			}
			b = b.Scale(o.size.suiteScale)
			b.Seed += shift
			c, err := generate(tr, b.Generate)
			cfg := b.Config()
			cfg.MaxIters = flowIters
			return flowJob{c, cfg}, err
		}
		in := &flowInputs{}
		var err error
		if in.warm, err = gen(suiteCircuits[0], 1000*(o.seed-1)); err != nil {
			return nil, err
		}
		for p := 0; p < n; p++ {
			var pass []flowJob
			for _, name := range suiteCircuits {
				j, err := gen(name, 1000*(o.seed-1)+int64(p))
				if err != nil {
					return nil, err
				}
				pass = append(pass, j)
			}
			in.ops = append(in.ops, pass)
		}
		return in, nil
	})
}

// runPlace times flows on generated blocks with 1% flip-flops, where
// placement (stages 1 and 6) is nearly all of the work. Block p of seed s
// uses generator seed 1000*s+p.
func runPlace(o options) (*report, error) {
	n := ops(o.seconds, o.size.blockFlow)
	cfg := core.Config{NumRings: 16, MaxIters: flowIters}
	return runFlows(o, func(tr *tracer) (*flowInputs, error) {
		gen := func(name string, cells, ffs int, seed int64) (flowJob, error) {
			c, err := generate(tr, func() (*netlist.Circuit, error) {
				return netlist.Generate(netlist.GenSpec{Name: name, Cells: cells, FlipFlops: ffs, Seed: seed})
			})
			return flowJob{c, cfg}, err
		}
		in := &flowInputs{}
		var err error
		if in.warm, err = gen("warm", o.size.warmCells, o.size.warmFFs, 1000*o.seed-1); err != nil {
			return nil, err
		}
		for p := 0; p < n; p++ {
			j, err := gen(fmt.Sprintf("block%d", p), o.size.blockCells, o.size.blockFFs, 1000*o.seed+int64(p))
			if err != nil {
				return nil, err
			}
			in.ops = append(in.ops, []flowJob{j})
		}
		return in, nil
	})
}

// generate times one call of the netlist generator.
func generate(tr *tracer, gen func() (*netlist.Circuit, error)) (*netlist.Circuit, error) {
	t0 := time.Now()
	c, err := gen()
	tr.record("netlist.Generate", time.Since(t0), nil)
	if err != nil {
		return nil, fmt.Errorf("generating circuit: %w", err)
	}
	return c, nil
}

// flowAnswer is the outcome of one core.Run.
type flowAnswer struct {
	res *core.Result
	err error
}

// runFlows sets a flow workload up setupReps times (generation plus one
// warm-up flow), times its operations, and checks every answer. A traced
// run first replays the first quarter of the operations untraced on clones,
// which gives trace.overhead_frac and a second, bit-identical answer for
// each replayed flow.
func runFlows(o options, setup func(*tracer) (*flowInputs, error)) (*report, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rep := newReport()
	speed := newSpeedMeter()
	var in *flowInputs
	var setups []time.Duration
	var warmFinal *core.Metrics
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		x, err := setup(tr)
		if err != nil {
			return nil, err
		}
		res, err := core.Run(x.warm.c, x.warm.cfg)
		setups = append(setups, time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("warm-up flow: %w", err)
		}
		if warmFinal != nil {
			rep.check(res.Final == *warmFinal, "warm-up flow on %s differs between set-ups", x.warm.c.Name)
		}
		warmFinal = &res.Final
		in = x
		speed.sample()
	}

	var replay [][]flowJob
	if tr != nil {
		for _, op := range in.ops[:(len(in.ops)+3)/4] {
			var cl []flowJob
			for _, j := range op {
				cl = append(cl, flowJob{j.c.Clone(), j.cfg})
			}
			replay = append(replay, cl)
		}
	}
	replayTimes, replayAnswers := timeFlows(replay, nil, speed)
	times, answers := timeFlows(in.ops, tr, speed)
	speed.timingValues(rep.values, setups, msList(times))

	var tap, total, power, wcp []float64
	for i, op := range in.ops {
		var q core.Metrics
		for k, j := range op {
			a := answers[i][k]
			if !checkFlow(rep, tr, j, a) {
				continue
			}
			if i < len(replayAnswers) {
				r := replayAnswers[i][k]
				rep.check(r.err == nil && r.res.Final == a.res.Final, "%s: traced and untraced answers differ", j.c.Name)
			}
			q.TapWL += a.res.Final.TapWL
			q.TotalWL += a.res.Final.TotalWL
			q.TotalPower += a.res.Final.TotalPower
			q.WCP += a.res.Final.WCP
		}
		tap, total = append(tap, q.TapWL), append(total, q.TotalWL)
		power, wcp = append(power, q.TotalPower), append(wcp, q.WCP)
	}
	qualityValues(rep.values, tap, total, power, wcp)
	if tr != nil {
		tr.layerValues(rep.values)
		overheadValue(rep.values, replayTimes, times)
	}
	return rep, nil
}

// timeFlows runs each operation's flows in order, timing each operation as
// the sum of its core.Run calls, and samples the machine's speed between
// calls.
func timeFlows(ops [][]flowJob, tr *tracer, speed *speedMeter) ([]time.Duration, [][]flowAnswer) {
	times := make([]time.Duration, len(ops))
	answers := make([][]flowAnswer, len(ops))
	for i, op := range ops {
		for _, j := range op {
			cfg := j.cfg
			reg := tr.registry()
			cfg.Obs = reg
			t0 := time.Now()
			res, err := core.Run(j.c, cfg)
			d := time.Since(t0)
			times[i] += d
			tr.record("core.Run", d, reg.Snapshot())
			answers[i] = append(answers[i], flowAnswer{res, err})
			speed.tick()
		}
	}
	return times, answers
}

// checkFlow checks one flow answer: no error, not Degraded, and core.Audit
// passes on the final placement. A traced run also times one timing.Analyze
// of the final placement, the size of the STA inside every slack refresh.
func checkFlow(rep *report, tr *tracer, j flowJob, a flowAnswer) bool {
	rep.attempted++
	if !rep.check(a.err == nil, "%s: %v", j.c.Name, a.err) ||
		!rep.check(!a.res.Degraded, "%s: degraded result: %v", j.c.Name, a.res.Events) {
		return false
	}
	t0 := time.Now()
	err := core.Audit(j.c, j.cfg, a.res)
	tr.record("core.Audit", time.Since(t0), nil)
	if tr != nil {
		t0 = time.Now()
		_, aerr := timing.Analyze(j.c, timing.DefaultModel())
		tr.record("timing.Analyze", time.Since(t0), nil)
		rep.check(aerr == nil, "%s: timing analysis: %v", j.c.Name, aerr)
	}
	return rep.check(err == nil, "%s: %v", j.c.Name, err)
}

// qualityValues reports the design quality of the run's answers, each the
// mean over the run's operations.
func qualityValues(into map[string]sample, tap, total, power, wcp []float64) {
	into["tap_wl_um"] = sample{mean(tap), len(tap)}
	into["total_wl_um"] = sample{mean(total), len(total)}
	into["total_power_mw"] = sample{mean(power), len(power)}
	into["wcp_um_pf"] = sample{mean(wcp), len(wcp)}
}

// overheadValue reports how much slower the traced operations ran than the
// same operations replayed untraced.
func overheadValue(into map[string]sample, untraced, traced []time.Duration) {
	var u, t time.Duration
	for i, d := range untraced {
		u += d
		t += traced[i]
	}
	frac := 0.0
	if u > 0 {
		frac = float64(t)/float64(u) - 1
	}
	into["trace.overhead_frac"] = sample{frac, len(untraced)}
}
