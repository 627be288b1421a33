package eco

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/placer"
	"rotaryclk/internal/skew"
	"rotaryclk/internal/stop"
	"rotaryclk/internal/timing"
)

// Apply absorbs a batch of deltas into the state with bounded recompute:
// netlist edits (rebuilding the quadratic system after a net edit), a
// dirty-region placement solve, a warm-started schedule re-check, and an
// assignment patch started from the previous solve's ring prices. On
// success the circuit and state hold the new optimum; on failure both roll
// back to their pre-call values — strict mode then returns the error,
// non-strict returns a Degraded outcome describing the restored state.
//
// Deltas apply in order, each seeing its predecessors' effects. Invalid
// deltas (unknown cells, class violations, out-of-range rings) are input
// errors in both modes and never degrade.
func Apply(st *State, deltas []Delta, opt Options) (*Outcome, error) {
	reg := opt.Obs
	reg.Add("eco.applies", 1)
	span := reg.StartSpan("eco.apply", obs.I("deltas", len(deltas)), obs.S("mode", mode(opt)))
	defer span.End()

	c := st.Circuit
	tok := opt.Stop
	out := &Outcome{}

	prevPos := c.Positions()
	pinned := clonePinned(st.Pinned)
	if pinned == nil {
		pinned = map[int]int{}
	}
	var undos []func()
	rollback := func() {
		for i := len(undos) - 1; i >= 0; i-- {
			undos[i]()
		}
		if err := c.SetPositions(prevPos); err != nil {
			// The snapshot came from this circuit; a mismatch is impossible
			// unless a delta resized it, which no delta does.
			panic(fmt.Sprintf("eco: rollback: %v", err))
		}
	}
	// fail finishes a failed solver phase: roll back, then either raise
	// (strict) or report the restored state as Degraded (non-strict).
	fail := func(phase string, err error) (*Outcome, error) {
		rollback()
		if opt.Strict {
			return nil, fmt.Errorf("eco: %s: %w", phase, err)
		}
		out.Events = append(out.Events, fmt.Sprintf("%s failed; rolled back to pre-edit state: %v", phase, err))
		out.Degraded = true
		reg.Add("eco.degraded", 1)
		out.FFCells = append([]int(nil), st.FFCells...)
		out.Sched = append([]float64(nil), st.Sched...)
		out.Assign = st.Assign
		if st.Assign != nil {
			out.Total = st.Assign.Total
		}
		out.WorkSlack = st.WorkSlack
		_, out.SignalWL = signalWL(st, opt.Scratch)
		return out, nil
	}

	// Phase 1: netlist edits. A net edit changes the connectivity, so the
	// quadratic system rebuilds from the edited circuit once the whole
	// batch has applied.
	nlSp := span.Child("eco.netlist")
	sys := st.Sys
	needRebuild := opt.Scratch
	dirtyCellSet := map[int]bool{}
	dirtyFFSet := map[int]bool{}
	for i, d := range deltas {
		ap, err := applyDelta(st, pinned, i, d)
		if err != nil {
			rollback()
			return nil, err
		}
		if ap.noop {
			out.NoOps++
			reg.Add("eco.noops", 1)
			continue
		}
		if ap.undo != nil {
			undos = append(undos, ap.undo)
		}
		out.Deltas++
		reg.Add("eco.deltas", 1)
		for _, id := range ap.dirtyCells {
			dirtyCellSet[id] = true
		}
		if ap.dirtyFF >= 0 {
			dirtyFFSet[ap.dirtyFF] = true
		}
		if ap.editedNet >= 0 {
			needRebuild = true
		}
	}
	nlSp.End()
	if out.Deltas == 0 {
		// Every delta was a no-op: nothing re-solves, nothing is dirty, and
		// the outcome echoes the unchanged state.
		out.FFCells = append([]int(nil), st.FFCells...)
		out.Sched = append([]float64(nil), st.Sched...)
		out.Assign = st.Assign
		if st.Assign != nil {
			out.Total = st.Assign.Total
		}
		out.WorkSlack = st.WorkSlack
		_, out.SignalWL = signalWL(st, opt.Scratch)
		return out, nil
	}
	if needRebuild {
		ns, err := placer.NewSystem(c, reg)
		if err != nil {
			rollback()
			return nil, fmt.Errorf("eco: system rebuild: %w", err)
		}
		sys = ns
		out.SystemRebuilt = true
		reg.Add("eco.system.rebuilds", 1)
	}
	if err := stop.Check(tok, faultinject.SiteEcoApplyCancel); err != nil {
		return fail("netlist edits", err)
	}

	// Phase 2: dirty-region incremental placement. The edited flip-flops
	// hold their (user-chosen) positions; their movable neighbors re-settle
	// against the rest of the placement as a boundary condition.
	plSp := span.Child("eco.place")
	dirtyCells := make([]int, 0, len(dirtyCellSet))
	for id := range dirtyCellSet {
		dirtyCells = append(dirtyCells, id)
	}
	sort.Ints(dirtyCells)
	if len(dirtyCells) > 0 {
		moved, err := sys.SolveDirty(dirtyCells, tok)
		if err != nil {
			plSp.End()
			return fail("dirty-region placement", err)
		}
		out.MovedCells = moved
	}
	out.DirtyCells = len(dirtyCells)
	reg.Add("eco.dirty.cells", int64(len(dirtyCells)))
	plSp.End()
	if err := stop.Check(tok, faultinject.SiteEcoApplyCancel); err != nil {
		return fail("dirty-region placement", err)
	}

	// Phase 3: scoped timing analysis and warm-started schedule re-check.
	// The STA cache re-propagates only the flip-flop sources whose cone the
	// edit touched (built in full on first use); the schedule repair,
	// seeded from the previous schedule, is one O(m) verification round
	// when nothing regressed.
	schedSp := span.Child("eco.sched")
	ffCells := c.FlipFlops()
	n := len(ffCells)
	if n == 0 {
		rollback()
		return nil, errors.New("eco: no flip-flops to optimize")
	}
	ffIdx := make(map[int]int, n)
	for i, id := range ffCells {
		ffIdx[id] = i
	}
	sta, pairs, err := analyze(st, ffIdx, opt.Scratch, reg)
	if err != nil {
		schedSp.End()
		return fail("timing analysis", err)
	}
	oldSched := make(map[int]float64, len(st.FFCells))
	for i, id := range st.FFCells {
		if i < len(st.Sched) {
			oldSched[id] = st.Sched[i]
		}
	}
	seed := make([]float64, n)
	for i, id := range ffCells {
		if s, ok := oldSched[id]; ok {
			seed[i] = s
		} else {
			seed[i] = ringPhaseSeed(st, c.Cells[id].Pos)
		}
	}
	T := st.Params.Period
	ladder := skew.SlackLadder(st.WorkSlack)
	var sched []float64
	margin, schedOK, allFFsDirty := 0.0, false, false
	for li, m := range ladder {
		cons := skew.Constraints(pairs, T, m, st.TModel.TSetup, st.TModel.THold)
		t, rounds, feasible, werr := skew.WarmStart(tok, reg, n, cons, seed)
		if werr != nil {
			schedSp.End()
			return fail("schedule re-check", werr)
		}
		out.SchedRounds = rounds
		if feasible {
			sched, margin, schedOK = t, m, true
			break
		}
		if li+1 < len(ladder) {
			out.Events = append(out.Events, fmt.Sprintf("schedule re-check infeasible at %.4g ps margin; relaxing to %.4g", m, ladder[li+1]))
			reg.Add("eco.recover.sched", 1)
		}
	}
	if !schedOK {
		// Even the zero-margin warm start failed: the edit moved timing past
		// the old schedule's neighborhood. Fall back to a fresh max-slack
		// solve (feasible whenever any schedule is) and re-route everything.
		M, ms, merr := skew.MaxSlack(tok, reg, n, pairs, T, st.TModel.TSetup, st.TModel.THold)
		if merr != nil {
			schedSp.End()
			return fail("schedule re-check", merr)
		}
		margin, sched = skew.WorkSlack(M), ms
		allFFsDirty = true
		out.Events = append(out.Events, "warm start infeasible at every margin; fell back to a fresh max-slack schedule")
		reg.Add("eco.recover.sched", 1)
	}
	out.WorkSlack = margin
	schedSp.End()
	if err := stop.Check(tok, faultinject.SiteEcoApplyCancel); err != nil {
		return fail("schedule re-check", err)
	}

	// Phase 4: assignment patch. Dirty flip-flops are the edited ones plus
	// any whose schedule entry the repair moved (bit-compare against the
	// old schedule); they are counted, not passed on. The patch re-solves
	// the tapping rows of flip-flops whose position, target or pin changed,
	// copies the rest from st.Assign, and starts the flow from its ring
	// prices.
	asgSp := span.Child("eco.assign")
	dirtyFFs := 0
	for i, id := range ffCells {
		old, had := oldSched[id]
		schedChanged := !had || math.Float64bits(old) != math.Float64bits(sched[i])
		if allFFsDirty || dirtyFFSet[id] || schedChanged {
			dirtyFFs++
		}
	}
	out.DirtyFFs = dirtyFFs
	reg.Add("eco.dirty.ffs", int64(dirtyFFs))

	var pin []int
	if len(pinned) > 0 {
		pin = make([]int, n)
		for i := range pin {
			pin[i] = -1
		}
		for i, id := range ffCells {
			if r, ok := pinned[id]; ok {
				pin[i] = r
			}
		}
	}
	mkProblem := func(r assign.Relaxation) *assign.Problem {
		ffs := make([]assign.FF, n)
		for i, id := range ffCells {
			ffs[i] = assign.FF{Cell: id, Pos: c.Cells[id].Pos, Target: sched[i]}
		}
		return &assign.Problem{
			Array:       st.Array,
			FFs:         ffs,
			K:           r.K,
			Capacity:    r.Capacity,
			Pin:         pin,
			Parallelism: st.Parallelism,
			TapFallback: r.Fallback,
			Obs:         reg,
			Stop:        tok,
		}
	}
	var asg *assign.Assignment
	first := assign.Relaxation{}
	if opt.Scratch {
		asg, err = assign.MinCost(mkProblem(first))
	} else {
		asg, err = assign.PatchMinCost(mkProblem(first), st.Assign)
	}
	if err != nil && errors.Is(err, assign.ErrInfeasible) && !opt.Strict {
		// The flow's stage-3 relaxation ladder: wider candidate sets, looser
		// capacities, and last the nearest-point fallback. Relaxed rungs
		// solve cold — the previous assignment is not a feasible warm start
		// for an instance the patch already rejected.
		for _, r := range assign.Ladder(n, len(st.Array.Rings)) {
			out.Events = append(out.Events, r.Action)
			reg.Add("eco.recover.assign", 1)
			asg, err = assign.MinCost(mkProblem(r))
			if err == nil || !errors.Is(err, assign.ErrInfeasible) {
				break
			}
		}
	}
	if err != nil {
		asgSp.End()
		return fail("assignment patch", err)
	}
	asgSp.End()
	wl, total := signalWL(st, opt.Scratch)
	if !opt.Scratch {
		reg.Add("eco.wl.nets", int64(wl.Nets()))
	}

	// Commit.
	st.Sys = sys
	st.STA = sta
	st.SignalWL = wl
	st.FFCells = ffCells
	st.Sched = sched
	st.Assign = asg
	st.WorkSlack = margin
	st.Pinned = pinned
	out.FFCells = append([]int(nil), ffCells...)
	out.Sched = append([]float64(nil), sched...)
	out.Assign = asg
	out.Total = asg.Total
	out.SignalWL = total
	return out, nil
}

// signalWL returns the signal wirelength of the state's circuit as it
// stands and the cache to commit with it. The incremental path updates
// st.SignalWL (building it on first use); Scratch measures every net and
// keeps st.SignalWL as it is.
func signalWL(st *State, scratch bool) (*SignalWL, float64) {
	if scratch {
		return st.SignalWL, st.Circuit.SignalWL()
	}
	var w *SignalWL
	if st.SignalWL == nil {
		w = NewSignalWL(st.Circuit)
	} else {
		w = st.SignalWL.Update(st.Circuit)
	}
	return w, w.Total()
}

// analyze returns the sequential pairs of the edited circuit and the STA
// cache to commit with them. The incremental path updates st.STA (building
// it on first use) and records its work; Scratch runs a full
// timing.SeqPairs and keeps st.STA as it is.
func analyze(st *State, ffIdx map[int]int, scratch bool, reg *obs.Registry) (*timing.STA, []skew.SeqPair, error) {
	c := st.Circuit
	if scratch {
		pairs, err := timing.SeqPairs(c, st.TModel, ffIdx)
		return st.STA, pairs, err
	}
	var sta *timing.STA
	var err error
	if st.STA == nil {
		sta, err = timing.NewSTA(c, st.TModel)
	} else {
		sta, err = st.STA.Update(c)
	}
	if err != nil {
		return nil, nil, err
	}
	w := sta.Work()
	reg.Add("eco.sta.sources", int64(w.Sources))
	reg.Add("eco.sta.reused", int64(w.Reused))
	if w.Full {
		reg.Add("eco.sta.full", 1)
	}
	pairs, err := sta.Pairs(ffIdx)
	return sta, pairs, err
}

func mode(opt Options) string {
	if opt.Scratch {
		return "scratch"
	}
	return "patch"
}

// ringPhaseSeed seeds a brand-new flip-flop's delay target at the phase its
// nearest ring offers at the nearest tapping point — the same quantity the
// nearest-point fallback tap realizes.
func ringPhaseSeed(st *State, pos geom.Point) float64 {
	js := st.Array.NearestRings(pos, 1)
	if len(js) == 0 {
		return 0
	}
	r := st.Array.Rings[js[0]]
	s, _, dist := r.Nearest(pos)
	return math.Mod(r.DelayAt(s, st.Params.Period)+st.Params.StubDelay(dist), st.Params.Period)
}
