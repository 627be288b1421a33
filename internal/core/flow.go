// Package core implements the paper's primary contribution: the integrated
// placement and skew optimization methodology of Fig. 3. The six stages are
//
//  1. initial placement (quadratic global placement + legalization)
//  2. max-slack skew optimization (Fishburn / graph-based)
//  3. flip-flop-to-ring assignment (network flow or ILP)
//  4. cost-driven skew optimization (min-Delta or weighted-sum)
//  5. cost evaluation / convergence check
//  6. pseudo-net incremental placement, looping back to 3
//
// Run executes the whole flow and reports the paper's metrics (AFD, tapping
// wirelength, signal wirelength, power) for both the base case (after the
// first assignment, Table III) and the converged result (Table IV).
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/placer"
	"rotaryclk/internal/power"
	"rotaryclk/internal/rotary"
	"rotaryclk/internal/skew"
	"rotaryclk/internal/stop"
	"rotaryclk/internal/timing"
)

// Assigner selects the stage-3 formulation.
type Assigner int

// Stage-3 assignment formulations.
const (
	NetworkFlow Assigner = iota // Section V: min total tapping cost
	ILP                         // Section VI: min max load capacitance
)

func (a Assigner) String() string {
	if a == ILP {
		return "ilp"
	}
	return "network-flow"
}

// SkewObjective selects the stage-4 cost-driven formulation.
type SkewObjective int

// Stage-4 objectives.
const (
	MinDelta    SkewObjective = iota // minimize max anchor mismatch
	WeightedSum                      // minimize sum w_i |t_i - target_i|
)

// Config parameterizes the flow.
type Config struct {
	Params   rotary.Params // rotary ring electrical/timing constants
	TModel   timing.Model  // STA calibration
	PowerPar power.Params

	NumRings int // rings in the array (Table II's final column)

	Assigner  Assigner
	Objective SkewObjective

	MaxIters     int     // stage 3-6 iterations (default 5, as in the paper)
	PseudoWeight float64 // pseudo-net pull weight, ramped by iteration (default 4)

	// SkipInitialPlace skips stage 1 and starts stage 2 from the circuit's
	// existing placement; its stage1.place span then carries skipped=1.
	// Stage 1 depends on the netlist alone, so a circuit set to another
	// run's Result.Placed (SetPositions) on an identical netlist runs the
	// rest of the flow bit for bit as that run did.
	SkipInitialPlace bool

	// TimingDriven enables critical-path net reweighting inside the
	// re-optimization loop (ROADMAP item 3): before each stage-6 re-place,
	// the 8 lowest-slack sequential pairs under the current schedule are
	// extracted and the nets their D_max paths cross get a bounded weight
	// boost in the quadratic system (placer.Options.NetWeights), pulling
	// slow paths shorter (see timingReweight). Default off; with it off the
	// flow is bit-identical to earlier releases.
	TimingDriven bool
	// TimingBoost is the scale increment applied to the most critical
	// path's nets, tapering linearly with rank (default 1.0). Negative
	// means zero boost: the overlay machinery runs but every net scale
	// stays exactly 1.0 — the identity mode the oracle checks against the
	// default flow.
	TimingBoost float64

	// Strict disables every recovery policy and the degraded-result path:
	// the first stage failure returns immediately as a *StageError. With
	// Strict off (the default) Run relaxes infeasible subproblems along
	// documented ladders and, once the base case exists, turns later
	// unrecoverable failures into a Degraded result carrying the best
	// snapshot instead of an error. Every action taken either way is
	// recorded in Result.Events.
	Strict bool

	// Parallelism bounds the workers of the flow's two parallel sites (the
	// placer's x/y axis solves and the assignment candidate matrix rows):
	// 0 = GOMAXPROCS, 1 = serial. Every value produces bit-identical
	// results (see internal/par).
	Parallelism int

	// Obs receives the flow's telemetry: hierarchical spans around the six
	// stages and each re-optimization iteration, plus the solver counters
	// of every stage, flushed to Result.Metrics on exit (including
	// Degraded exits). The stage spans are the run's only stage clock
	// (Result.CPUSeconds). Nil disarms telemetry: instrumentation is a
	// nil-receiver no-op and Result.Metrics stays nil.
	Obs *obs.Registry

	// Stop is an optional cooperative-cancellation token. Run checks it at
	// every stage boundary and threads it into every long solver loop (CG
	// iterations, simplex pivots, branch-and-bound nodes, augmenting-path
	// searches, candidate construction, skew feasibility rounds), so a
	// fired token surfaces within one inner iteration. Cancellation never
	// leaves a partial write: each solver hands back its best-so-far
	// state. In non-strict mode the run then degrades — the Result carries
	// the best consistent snapshot plus a Canceled or DeadlineExceeded
	// event — while strict mode raises the typed *StageError. Nil means
	// the run cannot be canceled.
	Stop *stop.Token
}

func (c *Config) normalize() {
	if c.Params == (rotary.Params{}) {
		c.Params = rotary.DefaultParams()
	}
	if c.TModel.Intrinsic == nil {
		c.TModel = timing.DefaultModel()
	}
	if c.PowerPar == (power.Params{}) {
		c.PowerPar = power.DefaultParams()
	}
	if c.NumRings <= 0 {
		c.NumRings = 16
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 5
	}
	if c.PseudoWeight <= 0 {
		c.PseudoWeight = 4
	}
	if c.TimingBoost == 0 {
		c.TimingBoost = 1.0
	}
}

// Metrics are the paper's per-design measurements.
type Metrics struct {
	AFD         float64 // average flip-flop tapping distance, um
	TapWL       float64 // total tapping wirelength, um
	SignalWL    float64 // total signal-net HPWL, um
	TotalWL     float64 // TapWL + SignalWL
	MaxCap      float64 // max ring load capacitance, fF
	ClockPower  float64 // mW
	SignalPower float64 // mW
	TotalPower  float64 // mW (dynamic; leakage is reported separately)
	LeakPower   float64 // mW, eq. (9) -- placement independent
	WCP         float64 // wirelength-capacitance product (Table VII), um*pF
}

// Result is the output of Run.
type Result struct {
	Base       Metrics // after the first stage-3 assignment (Table III)
	Final      Metrics // converged (Table IV)
	PerIter    []Metrics
	Iterations int

	MaxSlack float64   // M* from stage 2, ps
	Schedule []float64 // final delay targets per flip-flop (by FF order)
	FFCells  []int     // cell IDs in flip-flop order
	Assign   *assign.Assignment
	Array    *rotary.Array

	WorkSlack float64 // slack margin the final schedule is feasible at, ps

	// Placed is the placement stage 1 left on the circuit, by cell ID. It
	// is set only when stage 1 ran (not SkipInitialPlace), finished without
	// a stop and recorded no event, and is nil otherwise: a run that
	// starts from it with SkipInitialPlace on a netlist identical to this
	// one gives this run's answer, events included.
	Placed []geom.Point

	// Degraded reports that the re-optimization loop stopped on an
	// unrecoverable failure after the base case; the result then carries
	// the best consistent snapshot reached, not a converged one. The
	// triggering failure is the last Events entry.
	Degraded bool
	// Events logs, in order, every recovery and degradation action the
	// flow took instead of failing (and warnings such as a skipped in-loop
	// slack refresh). Empty on a clean run.
	Events []StageEvent

	// Metrics is the observability snapshot of the run — per-stage and
	// per-iteration spans plus every solver counter — taken at exit with
	// all spans closed. It is populated on successful AND Degraded exits
	// whenever Config.Obs is set, and nil when observability is disarmed.
	Metrics *obs.Snapshot
}

// Stage spans charged to the paper's CPU columns (Tables III and IV):
// placement is stages 1 and 6, optimization stages 2-5.
var (
	placeStages = []string{"stage1.place", "stage6.place"}
	optStages   = []string{"stage2.maxslack", "stage3.assign", "stage4.slack-refresh", "stage4.skew", "stage5.evaluate"}
)

// CPUSeconds splits the run's stage wall time into placement and
// optimization seconds, summed from the span tree in Metrics — the only
// stage clock. Both are 0 when the run was not traced; a registry shared by
// several runs gives their sum.
func (r *Result) CPUSeconds() (place, opt float64) {
	for _, name := range placeStages {
		place += r.Metrics.SpanSeconds(name)
	}
	for _, name := range optStages {
		opt += r.Metrics.SpanSeconds(name)
	}
	return place, opt
}

// event appends a recovery/degradation record to the result log.
func (r *Result) event(stage, iter int, kind Kind, action string, err error) {
	r.Events = append(r.Events, StageEvent{Stage: stage, Iter: iter, Kind: kind, Action: action, Err: err})
}

// ringFill is each ring's side as a fraction of its array tile.
const ringFill = 0.6

// flow is the state one Run threads through its stages: the inputs, the
// solver resources every stage shares, and the current and best iterates of
// the stage 3-6 loop.
type flow struct {
	c     *netlist.Circuit
	cfg   Config
	res   *Result
	reg   *obs.Registry
	root  *obs.Span
	ffIdx []int // timing.FFIndex of res.FFCells
	psys  *placer.System
	arr   *rotary.Array

	sched    []float64          // current schedule
	asg      *assign.Assignment // current assignment
	netScale []float64          // timing-driven net criticality; nil when the mode is off
	best     snapshot
	bestCost float64
	prevCost float64
	stall    int // consecutive iterations below the convergence tolerance
}

// Run executes the integrated flow on the circuit (placement is written onto
// it). The circuit must validate and have a non-empty die.
func Run(c *netlist.Circuit, cfg Config) (*Result, error) {
	cfg.normalize()
	if err := c.Validate(); err != nil {
		return nil, &StageError{Stage: 1, Kind: InvalidInput, Err: fmt.Errorf("invalid circuit: %w", err)}
	}
	res := &Result{FFCells: c.FlipFlops()}
	n := len(res.FFCells)
	if n == 0 && cfg.Strict {
		// A circuit with no flip-flops has nothing for stages 2-6 to
		// optimize. Strict mode keeps the hard error; otherwise the circuit
		// is still a placeable netlist and leaves through the partial-result
		// exit after stage 1 and the ring array.
		return nil, &StageError{Stage: 1, Kind: InvalidInput, Err: fmt.Errorf("circuit %q has no flip-flops", c.Name)}
	}
	f := &flow{c: c, cfg: cfg, res: res, ffIdx: timing.FFIndex(len(c.Cells), res.FFCells)}

	// Observability: one root span for the run, a child per stage, and a
	// child per re-optimization iteration. The deferred End is the
	// structural guarantee that every span closes on every exit path —
	// recovery ladders, Degraded breaks, and hard errors included — since
	// End recursively closes open children. The snapshot flushed into
	// Result.Metrics is taken after an explicit End in finish, so recorded
	// durations are final.
	reg := cfg.Obs
	reg.Add("core.runs", 1)
	root := reg.StartSpan("core.Run",
		obs.S("circuit", c.Name),
		obs.S("assigner", cfg.Assigner.String()),
		obs.I("rings", cfg.NumRings),
		obs.I("flipflops", n))
	defer root.End()
	f.reg, f.root = reg, root

	// The quadratic placement system is assembled once here and reused by
	// every placer call of the run — the initial global placement and all
	// stage-6 incremental re-placements — because the net connectivity it
	// encodes never changes across flow iterations.
	psys, err := placer.NewSystem(c, reg)
	if err != nil {
		return nil, stageErr(1, 0, fmt.Errorf("placement system: %w", err))
	}
	f.psys = psys

	// finish is the one result-returning exit, shared by clean, Degraded
	// and partial runs: End the root span explicitly (idempotent;
	// recursively closes spans a failure left open) so every recorded
	// duration is final, then snapshot the telemetry into the result.
	finish := func() (*Result, error) {
		if reg != nil {
			reg.Add("core.events", int64(len(res.Events)))
			if res.Degraded {
				reg.Add("core.degraded", 1)
			}
			root.End()
			res.Metrics = reg.Snapshot()
		}
		return res, nil
	}
	// partial finishes a run that has no base case: a circuit without
	// flip-flops, or a stop before the first assignment. The consistent
	// prefix reached so far (placement, ring array, possibly a stage-2
	// schedule) is completed with an empty assignment and schedule and
	// measured, so the result is valid, if empty-handed.
	partial := func() (*Result, error) {
		if res.Array == nil {
			if a, aerr := rotary.SquareArray(c.Die, cfg.NumRings, ringFill, cfg.Params); aerr == nil {
				res.Array = a
			}
		}
		if res.Assign == nil {
			numRings := 0
			if res.Array != nil {
				numRings = len(res.Array.Rings)
			}
			res.Assign = &assign.Assignment{
				Ring:  []int{},
				Taps:  []rotary.Tap{},
				Loads: make([]float64, numRings),
			}
		}
		if res.Schedule == nil {
			res.Schedule = []float64{}
		}
		res.Base = measure(c, cfg, res.Assign, n, c.SignalWL())
		res.Final = res.Base
		res.PerIter = append(res.PerIter, res.Base)
		return finish()
	}
	// degradeEarly finishes a run stopped before the base case exists:
	// non-strict callers get the partial result back Degraded with the stop
	// event recorded instead of an error; strict callers get the typed
	// failure. Only stop errors route here.
	degradeEarly := func(stage int, err error) (*Result, error) {
		se := stageErr(stage, 0, err)
		if cfg.Strict {
			return nil, se
		}
		res.event(stage, 0, se.Kind, "stopped before the base case; returning partial result", err)
		res.Degraded = true
		if stage == 1 && !cfg.SkipInitialPlace {
			// The canceled solve wrote its best iterate onto the circuit;
			// legalization turns it into a usable (overlap-free) placement.
			if lerr := placer.Legalize(c); lerr != nil {
				res.event(1, 0, Internal, "legalizing partial placement failed", lerr)
			}
		}
		return partial()
	}

	// Stage 1: initial placement. Conjugate-gradients stagnation is the one
	// recoverable failure here (see retryCG); anything else is a hard error.
	// placer.Global picks its path from the movable count alone: above
	// placer.Options.MLCoarsest it runs the multilevel V-cycle, at or below
	// it the flat loop. The placer.ml.vcycles, placer.ml.levels and
	// placer.ml.fallback counters in the trace say which one ran.
	s1 := root.Child("stage1.place")
	if !cfg.SkipInitialPlace {
		sp := s1.Child("stage1.global")
		err := f.retryCG(1, 0, "global placement", func(cgTol float64) error {
			return f.psys.Global(placer.Options{Parallelism: cfg.Parallelism, CGTol: cgTol, Obs: reg, Stop: cfg.Stop})
		})
		sp.End()
		if err != nil {
			if stop.IsStop(err) {
				s1.End()
				return degradeEarly(1, fmt.Errorf("global placement: %w", err))
			}
			return nil, stageErr(1, 0, fmt.Errorf("global placement: %w", err))
		}
		sp = s1.Child("stage1.legalize")
		err = placer.Legalize(c)
		sp.End()
		if err != nil {
			return nil, stageErr(1, 0, fmt.Errorf("legalization: %w", err))
		}
		// Full detailed refinement on the initial placement; inside the
		// loop (stage 6) the flip-flops stay pinned to their tapping points.
		sp = s1.Child("stage1.detailed")
		_, err = placer.Detailed(c, 2, nil, reg, cfg.Stop)
		sp.End()
		if err != nil {
			if stop.IsStop(err) {
				// Every swap keeps the placement legal, so the stop
				// degrades at the stage boundary like a stopped solve.
				s1.End()
				return degradeEarly(1, err)
			}
			return nil, stageErr(1, 0, err)
		}
	}
	if cfg.SkipInitialPlace {
		s1.Set(obs.I("skipped", 1))
	} else if len(res.Events) == 0 {
		res.Placed = c.Positions()
	}
	s1.End()
	if serr := cfg.Stop.Err(); serr != nil {
		// Placement is complete and legal; the run stops at the stage
		// boundary with a placement-only result.
		return degradeEarly(2, fmt.Errorf("after placement: %w", serr))
	}

	// Rotary ring array over the die.
	arr, err := rotary.SquareArray(c.Die, cfg.NumRings, ringFill, cfg.Params)
	if err != nil {
		return nil, &StageError{Stage: 3, Kind: InvalidInput, Err: fmt.Errorf("ring array: %w", err)}
	}
	res.Array, f.arr = arr, arr
	if n == 0 {
		// Stages 2-6 have no sequential elements to operate on: the placed
		// circuit and the ring array leave with signal-only metrics.
		res.event(2, 0, InvalidInput, "no flip-flops: skipping skew, assignment, and re-optimization stages", nil)
		return partial()
	}

	// Stage 2: max-slack skew optimization. No recovery ladder exists here:
	// with nothing assigned yet there is no weaker schedule to fall back to,
	// so an unsatisfiable constraint system is a hard (typed) failure.
	s2 := root.Child("stage2.maxslack")
	pairs, err := seqPairs(c, cfg.TModel, f.ffIdx)
	if err != nil {
		return nil, stageErr(2, 0, err)
	}
	M, sched, err := skew.MaxSlack(cfg.Stop, reg, n, pairs, cfg.Params.Period, cfg.TModel.TSetup, cfg.TModel.THold)
	if err != nil {
		if stop.IsStop(err) {
			s2.End()
			return degradeEarly(2, fmt.Errorf("max-slack skew optimization: %w", err))
		}
		return nil, stageErr(2, 0, fmt.Errorf("max-slack skew optimization: %w", err))
	}
	res.MaxSlack = M
	res.Schedule = sched
	s2.Set(obs.I("pairs", len(pairs)), obs.F("max_slack_ps", M))
	s2.End()

	// Stage 3: initial assignment -> base case metrics.
	s3 := root.Child("stage3.assign")
	asg, err := f.assignRecover(sched, 0)
	if err != nil {
		if stop.IsStop(err) {
			s3.End()
			return degradeEarly(3, fmt.Errorf("assignment: %w", err))
		}
		return nil, stageErr(3, 0, err)
	}
	s3.End()
	res.Assign = asg
	res.Base = measure(c, cfg, asg, n, c.SignalWL())
	res.Final = res.Base
	res.PerIter = append(res.PerIter, res.Base)

	// Stages 4-6 loop. Each iteration moves flip-flops toward their current
	// tapping points, then re-derives a consistent (timing, schedule,
	// assignment) triple for the new placement and measures it. The best
	// iterate is kept; its placement is restored at the end, so the
	// reported schedule provably satisfies the timing constraints of the
	// reported cell locations.
	res.WorkSlack = skew.WorkSlack(M)
	f.sched, f.asg = sched, asg
	f.best = snapshot{pos: c.Positions(), sched: sched, asg: asg, m: res.Base, mWork: res.WorkSlack}
	f.prevCost = overallCost(cfg.Assigner, res.Base)
	f.bestCost = f.prevCost
	// Timing-driven mode: one criticality scale per net, persistent across
	// iterations so the exponential-decay history damps oscillation. Nil
	// when the mode is off — the placer then takes its untouched base path.
	if cfg.TimingDriven {
		f.netScale = make([]float64, len(c.Nets))
		for i := range f.netScale {
			f.netScale[i] = 1
		}
	}
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		converged, stage, err := f.iterate(iter)
		if err != nil {
			// The loop's one failure site: a hard StageError in strict mode,
			// otherwise a degradation event that keeps the best snapshot.
			se := stageErr(stage, iter, err)
			if cfg.Strict {
				return nil, se
			}
			res.event(stage, iter, se.Kind, "stopping re-optimization; keeping best snapshot", err)
			res.Degraded = true
			break
		}
		if converged {
			break
		}
	}

	// Restore the best iterate.
	if err := c.SetPositions(f.best.pos); err != nil {
		// The snapshot came from this circuit, so a mismatch here is a
		// broken flow invariant, not recoverable state.
		return nil, &StageError{Stage: 5, Iter: res.Iterations, Kind: Internal, Err: fmt.Errorf("restoring best placement: %w", err)}
	}
	res.Assign = f.best.asg
	res.Schedule = f.best.sched
	res.Final = f.best.m
	res.WorkSlack = f.best.mWork
	return finish()
}

// iterate runs iteration iter of the re-optimization loop: stage 6 moves
// the flip-flops toward their current tapping points, stages 4 and 3
// re-derive the schedule and assignment for the new placement, and stage 5
// measures it and judges convergence. An unrecoverable failure returns the
// stage it happened in; Run decides between a strict error and a Degraded
// stop, and the root span closes whatever spans the failure left open.
func (f *flow) iterate(iter int) (converged bool, stage int, err error) {
	c, cfg, res, reg := f.c, &f.cfg, f.res, f.reg
	n := len(res.FFCells)
	if serr := cfg.Stop.Err(); serr != nil {
		return false, 6, fmt.Errorf("before iteration: %w", serr)
	}
	reg.Add("core.iterations", 1)
	itSp := f.root.Child("flow.iter", obs.I("iter", iter))
	// Timing-driven reweighting: rank the lowest-slack sequential pairs
	// under the current schedule and boost the nets their D_max paths
	// cross, so the stage-6 re-place pulls them shorter.
	if cfg.TimingDriven {
		tw := itSp.Child("stage6.reweight")
		timingReweight(c, cfg, res, f.ffIdx, f.sched, f.netScale, iter, reg)
		tw.End()
	}

	// Stage 6: pseudo-net incremental placement toward the current
	// assignment's tapping points.
	sp6 := itSp.Child("stage6.place")
	pn := make([]placer.PseudoNet, 0, n)
	for i, id := range res.FFCells {
		pn = append(pn, placer.PseudoNet{
			Cell:   id,
			Target: f.asg.Taps[i].Point,
			Weight: cfg.PseudoWeight * float64(iter),
		})
	}
	sp := sp6.Child("stage6.incremental")
	err = f.retryCG(6, iter, "incremental placement", func(cgTol float64) error {
		return f.psys.Incremental(placer.Options{PseudoNets: pn, NetWeights: f.netScale, Parallelism: cfg.Parallelism, CGTol: cgTol, Obs: reg, Stop: cfg.Stop})
	})
	sp.End()
	if err != nil {
		return false, 6, fmt.Errorf("incremental placement: %w", err)
	}
	sp = sp6.Child("stage6.legalize")
	err = placer.Legalize(c)
	sp.End()
	if err != nil {
		return false, 6, fmt.Errorf("legalization: %w", err)
	}
	// Recover signal wirelength disturbed by the pull + legalization,
	// holding the flip-flops where the pseudo-nets put them. A stop here
	// leaves a legal placement and ends the loop on the best snapshot.
	sp = sp6.Child("stage6.detailed")
	_, err = placer.Detailed(c, 1, res.FFCells, reg, cfg.Stop)
	sp.End()
	if err != nil {
		return false, 6, err
	}
	sp6.End()

	// Stage 4 on the new placement: re-derive the working slack and the
	// cost-driven schedule.
	sp4 := itSp.Child("stage4.slack-refresh")
	pairs, err := seqPairs(c, cfg.TModel, f.ffIdx)
	if err != nil {
		return false, 4, err
	}
	mWork := res.WorkSlack
	var msSched []float64 // fresh max-slack schedule, stage 4's last-resort fallback
	if mi, ms, err := skew.MaxSlack(cfg.Stop, reg, n, pairs, cfg.Params.Period, cfg.TModel.TSetup, cfg.TModel.THold); err == nil {
		mWork = skew.WorkSlack(mi)
		msSched = ms
	} else if stop.IsStop(err) || cfg.Strict {
		// A fired token is not a property of this placement: stop the loop
		// on the snapshot rather than optimizing against stale margins.
		// Strict mode raises every refresh failure.
		return false, 2, fmt.Errorf("in-loop slack refresh: %w", err)
	} else {
		// The placement moved into a state the slack solver rejects; keep
		// optimizing against the previous margin rather than silently
		// pretending the refresh happened.
		res.event(2, iter, classify(err), "in-loop slack refresh failed; reusing previous working slack", err)
	}
	sp4.End()
	// Inner fixed point of stages 4 and 3: the schedule chases the nearest
	// ring phases and the assignment chases the schedule; two rounds settle
	// the pair for the current placement. When round 1's schedule is
	// bit-equal to round 0's, its stage 3 would solve round 0's instance
	// again; if that solve recorded no event, its assignment is the answer
	// and nothing is solved (DESIGN.md section 30.3).
	var sched0 []float64
	clean0 := false
	for inner := 0; inner < 2; inner++ {
		c4 := itSp.Child("stage4.skew", obs.I("round", inner))
		if f.sched, mWork, err = f.costDrivenRecover(pairs, mWork, msSched, iter); err != nil {
			return false, 4, fmt.Errorf("cost-driven skew: %w", err)
		}
		c4.End()
		if clean0 && bitEqual(f.sched, sched0) {
			reg.Add("core.stage3.fixedpoint", 1)
			continue
		}
		events := len(res.Events)
		c3 := itSp.Child("stage3.assign", obs.I("round", inner))
		if f.asg, err = f.assignRecover(f.sched, iter); err != nil {
			return false, 3, fmt.Errorf("assignment: %w", err)
		}
		c3.End()
		sched0, clean0 = f.sched, len(res.Events) == events
	}

	// Stage 5: convergence on the overall cost, the paper's weighted sum of
	// total tapping cost and traditional placement cost. One stalled
	// iteration is tolerated (the pseudo-net ramp often recovers it); two
	// in a row end the loop.
	sp5 := itSp.Child("stage5.evaluate")
	m := measure(c, *cfg, f.asg, n, c.SignalWL())
	res.PerIter = append(res.PerIter, m)
	res.Iterations = iter
	cost := overallCost(cfg.Assigner, m)
	if cost < f.bestCost {
		f.bestCost = cost
		f.best = snapshot{pos: c.Positions(), sched: f.sched, asg: f.asg, m: m, mWork: mWork}
	}
	const convergeTol = 0.01 // relative cost improvement that keeps the loop going
	if f.prevCost-cost < convergeTol*f.prevCost {
		f.stall++
		converged = f.stall >= 2
	} else {
		f.stall = 0
	}
	f.prevCost = cost
	sp5.Set(obs.F("cost", cost))
	sp5.End()
	itSp.End()
	return converged, 0, nil
}

// bitEqual reports whether two schedules hold the same float64s, bit for
// bit.
func bitEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// tapWeight weighs tapping wirelength against signal wirelength in the
// stage-5 overall cost.
const tapWeight = 8

// overallCost is the stage-5 evaluation: the network-flow formulation
// optimizes wirelength (the weighted sum of tapping and signal WL); the ILP
// formulation optimizes frequency, so its iterations are judged by the
// wirelength-capacitance product instead (Table VII's metric).
func overallCost(a Assigner, m Metrics) float64 {
	if a == ILP {
		return m.WCP
	}
	return tapWeight*m.TapWL + m.SignalWL
}

// retryCG runs one placer solve under the stagnation policy stages 1 and 6
// share. Conjugate-gradients stagnation leaves a usable iterate on the
// circuit, so outside strict mode the solve is retried once at a 100x looser
// tolerance, which almost always converges; when the retry stagnates too,
// the best-effort iterate is kept (legalization makes it usable). solve
// receives the CG tolerance, 0 meaning the placer default.
func (f *flow) retryCG(stage, iter int, what string, solve func(cgTol float64) error) error {
	err := solve(0)
	if err == nil || f.cfg.Strict || !errors.Is(err, placer.ErrNonConverged) {
		return err
	}
	f.res.event(stage, iter, NonConverged, "retrying "+what+" at 100x looser CG tolerance", err)
	if err = solve(1e-4); errors.Is(err, placer.ErrNonConverged) {
		f.res.event(stage, iter, NonConverged, "keeping best-effort placement from stagnated solve", err)
		return nil
	}
	return err
}

// snapshot captures one consistent (placement, schedule, assignment) state.
type snapshot struct {
	pos   []geom.Point
	sched []float64
	asg   *assign.Assignment
	m     Metrics
	mWork float64
}

// seqPairs runs STA and maps cell IDs to flip-flop indices.
func seqPairs(c *netlist.Circuit, m timing.Model, ffIdx []int) ([]skew.SeqPair, error) {
	pairs, err := timing.SeqPairs(c, m, ffIdx)
	if err != nil {
		return nil, fmt.Errorf("core: timing analysis: %w", err)
	}
	return pairs, nil
}

// solveAssign builds and solves one stage-3 instance of the schedule at the
// rung's relaxation knobs with the configured formulation, taking over the
// unchanged candidate rows of the assignment it replaces.
func (f *flow) solveAssign(sched []float64, r assign.Relaxation) (*assign.Assignment, error) {
	ffs := make([]assign.FF, len(f.res.FFCells))
	for i, id := range f.res.FFCells {
		ffs[i] = assign.FF{Cell: id, Pos: f.c.Cells[id].Pos, Target: sched[i]}
	}
	p := &assign.Problem{
		Array:       f.arr,
		FFs:         ffs,
		K:           r.K,
		Capacity:    r.Capacity,
		Parallelism: f.cfg.Parallelism,
		TapFallback: r.Fallback,
		Obs:         f.reg,
		Stop:        f.cfg.Stop,
		Prev:        f.asg,
	}
	if f.cfg.Assigner == ILP {
		a, _, err := assign.MinMaxCap(p)
		return a, err
	}
	return assign.MinCost(p)
}

// assignRecover runs stage 3 under the infeasibility-recovery ladder
// (assign.Ladder): the configured instance first, then progressively wider
// candidate sets and relaxed ring capacities, and as a last resort the
// nearest-point tapping fallback (recorded, since fallback taps do not
// realize the skew targets). Strict mode and non-infeasibility errors skip
// the ladder entirely.
func (f *flow) assignRecover(sched []float64, iter int) (*assign.Assignment, error) {
	steps := append([]assign.Relaxation{{}}, assign.Ladder(len(f.res.FFCells), len(f.arr.Rings))...)
	var err error
	for si, st := range steps {
		if si > 0 {
			f.res.event(3, iter, Infeasible, st.Action, err)
			f.reg.Add("core.recover.assign", 1)
		}
		var a *assign.Assignment
		if a, err = f.solveAssign(sched, st); err == nil {
			if len(a.Fallbacks) > 0 {
				f.res.event(3, iter, Infeasible,
					fmt.Sprintf("%d flip-flop(s) tapped via nearest-point fallback", len(a.Fallbacks)), nil)
			}
			return a, nil
		}
		if f.cfg.Strict || !errors.Is(err, assign.ErrInfeasible) {
			return nil, err
		}
	}
	return nil, err
}

// costDrivenRecover runs stage 4 under the slack-relaxation ladder
// (skew.SlackLadder: the full working slack, half of it, then none); if even
// the zero-margin system is infeasible it falls back to the fresh max-slack
// schedule (feasible by construction). It returns the schedule and the
// margin it is feasible at. Strict mode and non-infeasibility errors skip
// the ladder entirely.
func (f *flow) costDrivenRecover(pairs []skew.SeqPair, mWork float64, msSched []float64, iter int) ([]float64, float64, error) {
	cfg := &f.cfg
	ladder := skew.SlackLadder(mWork)
	var err error
	for li, m := range ladder {
		var t []float64
		if t, err = f.costDriven(skew.Constraints(nil, pairs, cfg.Params.Period, m, cfg.TModel.TSetup, cfg.TModel.THold)); err == nil {
			return t, m, nil
		}
		if cfg.Strict || !errors.Is(err, skew.ErrInfeasible) {
			return nil, mWork, err
		}
		if li+1 < len(ladder) {
			f.res.event(4, iter, Infeasible,
				fmt.Sprintf("relaxing working slack to %.4g ps", ladder[li+1]), err)
			f.reg.Add("core.recover.skew", 1)
		}
	}
	if msSched != nil {
		f.res.event(4, iter, Infeasible, "falling back to the max-slack schedule", err)
		f.reg.Add("core.recover.skew", 1)
		return msSched, mWork, nil
	}
	return nil, mWork, err
}

// costDriven runs the stage-4 skew optimization of the current schedule
// and assignment: anchors are the phases at the nearest points of each
// flip-flop's assigned ring, period-shifted next to the current schedule so
// the |t - target| costs are meaningful.
func (f *flow) costDriven(cons []skew.DiffConstraint) ([]float64, error) {
	n := len(f.res.FFCells)
	T := f.cfg.Params.Period
	anchors := make([]skew.Anchor, n)
	targets := make([]float64, n)
	weights := make([]float64, n)
	for i, id := range f.res.FFCells {
		ring := f.arr.Rings[f.asg.Ring[i]]
		pos := f.c.Cells[id].Pos
		s, _, dist := ring.Nearest(pos)
		a := ring.DelayAt(s, T)
		// Shift the anchor by whole periods to sit nearest the current
		// schedule (clock phase is periodic; the absolute differences in
		// the cost-driven formulations are not).
		k := math.Round((f.sched[i] - a) / T)
		a += k * T
		tci := f.cfg.Params.StubDelay(dist)
		anchors[i] = skew.Anchor{A: a, TCI: tci}
		targets[i] = a + tci
		weights[i] = math.Max(1, dist)
	}
	if f.cfg.Objective == WeightedSum {
		_, t, err := skew.WeightedSum(f.cfg.Stop, f.reg, n, cons, targets, weights)
		return t, err
	}
	_, t, err := skew.MinDelta(f.cfg.Stop, f.reg, n, cons, anchors)
	return t, err
}

// measure collects the paper's metrics for the current placement+assignment,
// given the circuit's signal wirelength (c.SignalWL(), or a cache bit-equal
// to it).
func measure(c *netlist.Circuit, cfg Config, asg *assign.Assignment, numFF int, signalWL float64) Metrics {
	m := Metrics{
		AFD:      asg.AvgDist,
		TapWL:    asg.Total,
		SignalWL: signalWL,
		MaxCap:   asg.MaxCap,
	}
	m.TotalWL = m.TapWL + m.SignalWL
	m.ClockPower = cfg.PowerPar.Clock(m.TapWL, numFF)
	m.SignalPower = cfg.PowerPar.SignalFromWL(c, signalWL).Power
	m.TotalPower = m.ClockPower + m.SignalPower
	st := c.Stats()
	m.LeakPower = cfg.PowerPar.Leakage(st.Cells-st.FlipFlops, st.FlipFlops)
	m.WCP = m.TotalWL * m.MaxCap / 1000 // um * pF
	return m
}
