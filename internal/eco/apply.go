package eco

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/placer"
	"rotaryclk/internal/rotary"
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
	st.applies++
	if st.ws == nil {
		st.ws = &workspace{}
	}
	w := st.ws

	pinned := clonePinned(st.Pinned)
	if pinned == nil {
		pinned = map[int]int{}
	}
	rb := &out.rb
	// fail finishes a failed solver phase: roll back, then either raise
	// (strict) or report the restored state as Degraded (non-strict).
	fail := func(phase string, err error) (*Outcome, error) {
		rb.run(c)
		if opt.Strict {
			return nil, fmt.Errorf("eco: %s: %w", phase, err)
		}
		out.Events = append(out.Events, fmt.Sprintf("%s failed; rolled back to pre-edit state: %v", phase, err))
		out.Degraded = true
		reg.Add("eco.degraded", 1)
		out.report(st)
		return out, nil
	}

	// Phase 1: netlist edits. A net edit changes the connectivity, so the
	// quadratic system rebuilds from the edited circuit once the whole
	// batch has applied. The edit's scope is every edited cell and net
	// plus the dirty region phase 2 may move: the only cells and nets the
	// STA and wirelength caches re-read.
	nlSp := span.Child("eco.netlist")
	sys := st.Sys
	needRebuild := opt.Scratch
	dirtyFFSet := map[int]bool{}
	var dirtyCells, scopeCells, scopeNets []int
	for i, d := range deltas {
		ap, err := applyDelta(st.Circuit, len(st.Array.Rings), pinned, i, d)
		if err != nil {
			rb.run(c)
			return nil, err
		}
		if ap.noop {
			out.NoOps++
			reg.Add("eco.noops", 1)
			continue
		}
		if ap.undo != nil {
			rb.undos = append(rb.undos, ap.undo)
		}
		out.Deltas++
		reg.Add("eco.deltas", 1)
		scopeCells = append(scopeCells, d.Cell)
		dirtyCells = append(dirtyCells, ap.dirtyCells...)
		if ap.dirtyFF >= 0 {
			dirtyFFSet[ap.dirtyFF] = true
		}
		if ap.editedNet >= 0 {
			scopeNets = append(scopeNets, ap.editedNet)
			needRebuild = true
		}
	}
	nlSp.End()
	if out.Deltas == 0 {
		// Every delta was a no-op: nothing re-solves, nothing is dirty, and
		// the outcome reports the unchanged state.
		out.report(st)
		return out, nil
	}
	dirtyCells = sortedSet(dirtyCells)
	scopeCells = sortedSet(append(scopeCells, dirtyCells...))
	scopeNets = sortedSet(scopeNets)
	if needRebuild {
		ns, err := placer.NewSystem(c, reg)
		if err != nil {
			rb.run(c)
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
	if len(dirtyCells) > 0 {
		placedAt := slices.Grow(w.placedAt[:0], len(dirtyCells))[:len(dirtyCells)]
		for i, id := range dirtyCells {
			placedAt[i] = c.Cells[id].Pos
		}
		w.placedAt = placedAt
		rb.placed, rb.placedAt = dirtyCells, placedAt
		moved, err := sys.SolveDirty(dirtyCells, tok, reg)
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
	// edit touched; the schedule repair, seeded from the previous schedule,
	// is one O(m) verification round when nothing regressed.
	schedSp := span.Child("eco.sched")
	sta, err := analyze(st, w, scopeCells, scopeNets, opt.Scratch, reg)
	if err != nil {
		schedSp.End()
		return fail("timing analysis", err)
	}
	ffCells := sta.FlipFlops()
	n := len(ffCells)
	if n == 0 {
		schedSp.End()
		rb.run(c)
		return nil, errors.New("eco: no flip-flops to optimize")
	}
	pairs, err := sta.Pairs(w.pairs[:0], w.ffIndex(len(c.Cells), ffCells))
	if err != nil {
		schedSp.End()
		return fail("timing analysis", err)
	}
	w.pairs = pairs
	// oldAt[i] is flip-flop i's index in the committed schedule, -1 for a
	// new flip-flop: both lists are in cell-ID order, so one merge finds it.
	oldAt := slices.Grow(w.oldAt[:0], n)[:n]
	seed := slices.Grow(w.seed[:0], n)[:n]
	w.oldAt, w.seed = oldAt, seed
	j := 0
	for i, id := range ffCells {
		for j < len(st.FFCells) && st.FFCells[j] < id {
			j++
		}
		oldAt[i] = -1
		if j < len(st.FFCells) && st.FFCells[j] == id && j < len(st.Sched) {
			oldAt[i] = j
			seed[i] = st.Sched[j]
		} else {
			seed[i] = ringPhaseSeed(st, c.Cells[id].Pos)
		}
	}
	T := st.Params.Period
	ladder := skew.SlackLadder(st.WorkSlack)
	var sched []float64
	margin, schedOK, allFFsDirty := 0.0, false, false
	for li, m := range ladder {
		cons := skew.Constraints(w.cons[:0], pairs, T, m, st.TModel.TSetup, st.TModel.THold)
		w.cons = cons
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
		j := oldAt[i]
		schedChanged := j < 0 || math.Float64bits(st.Sched[j]) != math.Float64bits(sched[i])
		if allFFsDirty || dirtyFFSet[id] || schedChanged {
			dirtyFFs++
		}
	}
	out.DirtyFFs = dirtyFFs
	reg.Add("eco.dirty.ffs", int64(dirtyFFs))

	// The problem's flip-flops and pins are workspace buffers: the
	// assignment keeps copies of both.
	var pin []int
	if len(pinned) > 0 {
		pin = slices.Grow(w.pin[:0], n)[:n]
		w.pin = pin
		for i, id := range ffCells {
			pin[i] = -1
			if r, ok := pinned[id]; ok {
				pin[i] = r
			}
		}
	}
	mkProblem := func(r assign.Relaxation) *assign.Problem {
		ffs := slices.Grow(w.ffs[:0], n)[:n]
		w.ffs = ffs
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
		asg, err = assign.PatchMinCost(mkProblem(first), st.Assign, &w.asg)
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
	wl := signalWL(st, scopeCells, scopeNets, opt.Scratch, reg)

	// Commit, keeping the pre-commit state for Revert.
	out.st, out.prev = st, *st
	st.Sys = sys
	st.STA = sta
	st.SignalWL = wl
	st.FFCells = ffCells
	st.Sched = sched
	st.Assign = asg
	st.WorkSlack = margin
	st.Pinned = pinned
	out.report(st)
	return out, nil
}

// rollback is an edit's undo record. Phase 2 moves only the dirty cells:
// placed lists them and placedAt holds their positions from before it.
// Every delta's undo restores the cells that delta edited.
type rollback struct {
	placed   []int
	placedAt []geom.Point
	undos    []func()
}

// run restores c to its pre-edit positions and netlist: the dirty cells'
// positions first, then each delta's undo, newest first. It is the one
// rollback path, run by a failed Apply and by Revert.
func (rb *rollback) run(c *netlist.Circuit) {
	for i, id := range rb.placed {
		c.Cells[id].Pos = rb.placedAt[i]
	}
	for i := len(rb.undos) - 1; i >= 0; i-- {
		rb.undos[i]()
	}
}

// report fills out with the state as last committed: the new state after a
// commit, the pre-edit state after a rollback or a batch of no-ops.
func (out *Outcome) report(st *State) {
	out.Total = st.Assign.Total
	out.WorkSlack = st.WorkSlack
	out.SignalWL = st.SignalWL.Total()
}

// signalWL returns the signal-wirelength cache of the edited circuit:
// st.SignalWL updated over the edit's scope, or under Scratch a full
// NewSignalWL that reads no cache. It records the nets it measured.
func signalWL(st *State, cells, nets []int, scratch bool, reg *obs.Registry) *SignalWL {
	var w *SignalWL
	if scratch {
		w = NewSignalWL(st.Circuit)
	} else {
		w = st.SignalWL.Update(st.Circuit, cells, nets)
	}
	reg.Add("eco.wl.nets", int64(w.Nets()))
	return w
}

// analyze returns the STA cache of the edited circuit: st.STA updated over
// the edit's scope in w, or under Scratch a full timing.NewSTA that reads
// no cache. It records the cache's work.
func analyze(st *State, w *workspace, cells, nets []int, scratch bool, reg *obs.Registry) (*timing.STA, error) {
	var sta *timing.STA
	var err error
	if scratch {
		sta, err = timing.NewSTA(st.Circuit, st.TModel)
	} else {
		sta, err = st.STA.Update(st.Circuit, cells, nets, &w.sta)
	}
	if err != nil {
		return nil, err
	}
	wk := sta.Work()
	reg.Add("eco.sta.sources", int64(wk.Sources))
	reg.Add("eco.sta.reused", int64(wk.Reused))
	if wk.Full {
		reg.Add("eco.sta.full", 1)
	}
	return sta, nil
}

// sortedSet sorts xs in place and drops its duplicates.
func sortedSet(xs []int) []int {
	slices.Sort(xs)
	return slices.Compact(xs)
}

func mode(opt Options) string {
	if opt.Scratch {
		return "scratch"
	}
	return "patch"
}

// ringPhaseSeed seeds a brand-new flip-flop's delay target at the phase its
// nearest ring offers at the nearest tapping point: the delay of the
// nearest-point fallback tap.
func ringPhaseSeed(st *State, pos geom.Point) float64 {
	js := st.Array.NearestRings(pos, 1)
	if len(js) == 0 {
		return 0
	}
	tap, _ := rotary.NearestTap(st.Array.Rings[js[0]], st.Params, pos)
	return tap.Delay
}
