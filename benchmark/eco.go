package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"rotaryclk/internal/core"
	"rotaryclk/internal/eco"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/placer"
	"rotaryclk/internal/timing"
)

// overlapEvery is the stride of the legality audit in a traced eco run:
// placer.MaxOverlap is quadratic in the cell count, so only every
// overlapEvery-th committed placement (and the last) is audited.
const overlapEvery = 10

// ecoSeq is the length of an edit sequence. Every ecoSeq edits the run
// restarts from a clone of the placed base, so the cost of an edit does
// not drift with how far a long sequence has moved the design, and every
// run edits designs of the same age.
const ecoSeq = 100

// runECO applies sequences of single-delta edits to one placed base design
// through core.ApplyECO, timing each edit. The deltas come from
// eco.RandomDeltas(rand.New(seed), ...) drawn against the evolving design.
// The base flow is set-up. A traced run also replays the first quarter of
// the edits untraced on a clone, checks the ECO-vs-scratch contract on the
// same quarter (the scratch arm costs about three edits per edit), and
// audits the legality of the committed placements.
func runECO(o options) (*report, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rep := newReport()
	speed := newSpeedMeter()
	cfg := core.Config{NumRings: 16, MaxIters: flowIters}
	n := ops(o.seconds, o.size.ecoEdit)

	var base *netlist.Circuit
	var baseRes *core.Result
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		c, err := generate(tr, func() (*netlist.Circuit, error) {
			return netlist.Generate(netlist.GenSpec{Name: "eco-base", Cells: o.size.ecoCells, FlipFlops: o.size.ecoFFs, Seed: o.seed})
		})
		if err != nil {
			return nil, err
		}
		res, err := core.Run(c, cfg)
		if err != nil {
			return nil, fmt.Errorf("base flow: %w", err)
		}
		if res.Degraded {
			return nil, fmt.Errorf("base flow degraded: %v", res.Events)
		}
		warm, err := core.NewECOState(c.Clone(), cfg, res)
		if err != nil {
			return nil, err
		}
		ds := eco.RandomDeltas(rand.New(rand.NewSource(^o.seed)), warm.Circuit, len(warm.Array.Rings), 1)
		wres, werr := core.ApplyECO(warm, ds, cfg, eco.Options{})
		setups = append(setups, time.Since(t0))
		rep.check(werr == nil && !wres.Outcome.Degraded, "warm-up edit %v failed: %v", ds, werr)
		rep.check(core.Audit(c, cfg, res) == nil, "base flow fails core.Audit")
		if baseRes != nil {
			rep.check(res.Final == baseRes.Final, "base flow differs between set-ups")
		}
		base, baseRes = c, res
		speed.sample()
	}

	// Every edit sequence starts from its own clone of the placed base.
	fresh := func() (*eco.State, error) { return core.NewECOState(base.Clone(), cfg, baseRes) }
	var replayFinals []core.Metrics
	var replayTimes []time.Duration
	if tr != nil {
		var err error
		replayTimes, err = editLoop(fresh, cfg, o.seed, (n+3)/4, nil, speed, func(_ int, _ *eco.State, _ []eco.Delta, res *core.ECOResult, err error) {
			if err == nil {
				replayFinals = append(replayFinals, res.Final)
			}
		})
		if err != nil {
			return nil, err
		}
	}

	var scratch *eco.State
	var tap, total, power, wcp []float64
	overlaps, audited := 0, 0
	times, err := editLoop(fresh, cfg, o.seed, n, tr, speed, func(e int, st *eco.State, ds []eco.Delta, res *core.ECOResult, err error) {
		rep.attempted++
		if !rep.check(err == nil, "edit %d %v: %v", e, ds, err) ||
			!rep.check(!res.Outcome.Degraded, "edit %d %v degraded: %v", e, ds, res.Outcome.Events) {
			return
		}
		if e%ecoSeq == ecoSeq-1 || e == n-1 {
			f := res.Final
			tap, total = append(tap, f.TapWL), append(total, f.TotalWL)
			power, wcp = append(power, f.TotalPower), append(wcp, f.WCP)
		}
		if tr == nil {
			return
		}
		if e < len(replayTimes) {
			rep.check(e < len(replayFinals) && replayFinals[e] == res.Final, "edit %d: traced and untraced answers differ", e)
			if e%ecoSeq == 0 {
				// The scratch arm follows the same sequence from the same base.
				var ferr error
				scratch, ferr = fresh()
				rep.check(ferr == nil, "scratch arm: %v", ferr)
			}
			if scratch != nil {
				sres, serr := core.ApplyECO(scratch, ds, cfg, eco.Options{Scratch: true})
				if rep.check(serr == nil && !sres.Outcome.Degraded, "edit %d scratch arm failed: %v", e, serr) {
					cerr := sameECOAnswer(st, scratch, res, sres)
					rep.check(cerr == nil, "edit %d: ECO and scratch answers differ: %v", e, cerr)
				}
			}
		}
		t0 := time.Now()
		_, aerr := timing.Analyze(st.Circuit, st.TModel)
		tr.record("timing.Analyze", time.Since(t0), nil)
		rep.check(aerr == nil, "edit %d: timing analysis: %v", e, aerr)
		if e%overlapEvery == 0 || e == n-1 {
			t0 = time.Now()
			ov := placer.MaxOverlap(st.Circuit)
			tr.record("placer.MaxOverlap", time.Since(t0), nil)
			audited++
			if ov > 1e-6 {
				overlaps++
			}
		}
	})
	if err != nil {
		return nil, err
	}
	ms := msList(times)
	speed.timingValues(rep.values, setups, ms)
	qualityValues(rep.values, tap, total, power, wcp)
	rep.values["eco.edit_p95_ms"] = sample{percentile(ms, 95), len(ms)}
	if tr != nil {
		tr.layerValues(rep.values)
		overheadValue(rep.values, replayTimes, times)
		rep.values["eco.overlap_answers"] = sample{float64(overlaps), audited}
		rep.values["eco.overlap_audited"] = sample{float64(audited), audited}
	}
	return rep, nil
}

// editLoop applies n single-delta edits in sequences of ecoSeq, each
// sequence on a fresh state, and times each core.ApplyECO call. Every delta
// is drawn from one rand.New(seed) stream against the current design.
// after sees the state and every edit's outcome. The machine's speed is
// sampled between edits.
func editLoop(fresh func() (*eco.State, error), cfg core.Config, seed int64, n int, tr *tracer, speed *speedMeter, after func(e int, st *eco.State, ds []eco.Delta, res *core.ECOResult, err error)) ([]time.Duration, error) {
	rng := rand.New(rand.NewSource(seed))
	times := make([]time.Duration, 0, n)
	var st *eco.State
	for e := 0; e < n; e++ {
		if e%ecoSeq == 0 {
			var err error
			if st, err = fresh(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		ds := eco.RandomDeltas(rng, st.Circuit, len(st.Array.Rings), 1)
		tr.record("eco.RandomDeltas", time.Since(t0), nil)
		reg := tr.registry()
		t0 = time.Now()
		res, err := core.ApplyECO(st, ds, cfg, eco.Options{Obs: reg})
		d := time.Since(t0)
		tr.record("core.ApplyECO", d, reg.Snapshot())
		times = append(times, d)
		speed.tick()
		after(e, st, ds, res, err)
	}
	return times, nil
}

// sameECOAnswer checks the ECO-vs-scratch contract between the incremental
// state a and the scratch state b after the same edit: cell positions and
// schedules agree within 1e-9 and tapping totals and the final metrics
// within 1e-6, all relative.
func sameECOAnswer(a, b *eco.State, ra, rb *core.ECOResult) error {
	if len(a.Circuit.Cells) != len(b.Circuit.Cells) || len(a.Sched) != len(b.Sched) {
		return fmt.Errorf("design sizes differ")
	}
	for i, ca := range a.Circuit.Cells {
		pa, pb := ca.Pos, b.Circuit.Cells[i].Pos
		if !closeRel(pa.X, pb.X, 1e-9) || !closeRel(pa.Y, pb.Y, 1e-9) {
			return fmt.Errorf("cell %d at %v vs %v", i, pa, pb)
		}
	}
	for i := range a.Sched {
		if !closeRel(a.Sched[i], b.Sched[i], 1e-9) {
			return fmt.Errorf("schedule[%d] %.12g vs %.12g", i, a.Sched[i], b.Sched[i])
		}
	}
	fa, fb := ra.Final, rb.Final
	for _, p := range [][2]float64{
		{ra.Outcome.Total, rb.Outcome.Total}, {fa.TapWL, fb.TapWL}, {fa.SignalWL, fb.SignalWL},
		{fa.TotalPower, fb.TotalPower}, {fa.MaxCap, fb.MaxCap}, {fa.WCP, fb.WCP},
	} {
		if !closeRel(p[0], p[1], 1e-6) {
			return fmt.Errorf("totals %.9g vs %.9g", p[0], p[1])
		}
	}
	return nil
}

// closeRel reports |a-b| <= tol * max(1, |a|, |b|).
func closeRel(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
