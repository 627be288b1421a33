// Package eco implements incremental engineering-change-order (ECO)
// re-optimization: after a completed placement-and-skew flow, small netlist
// deltas (moved or added flip-flops, ring retargets, net edits) are absorbed
// with bounded recompute instead of a full re-run. Five incremental layers
// do the work:
//
//  1. dirty-region placement — only the cells whose connectivity or
//     neighborhood changed re-solve (placer.System.SolveDirty); a net edit
//     first rebuilds the quadratic system (placer.NewSystem), the one
//     builder of it;
//  2. scoped timing analysis — the per-source STA cache (timing.STA)
//     re-propagates only the flip-flop sources whose cone the edit touched
//     and copies every other row of sequential pairs;
//  3. warm-started skew scheduling — the previous schedule seeds a
//     Bellman-Ford repair (skew.WarmStart) that re-checks every constraint
//     in one O(m) round and moves only the entries the edit forces;
//  4. assignment patching — the min-cost flow starts from the previous
//     solve's ring prices and candidate rows, so only the flip-flops those
//     prices do not settle re-route (assign.PatchMinCost);
//  5. cached signal wirelength — the per-net HPWL cache (SignalWL)
//     re-measures only the nets the edit touched and re-sums them in net
//     order for the outcome's metrics.
//
// Apply is the one owner of an edit's scope: the cells the deltas edited,
// the dirty region the placement may move, and the edited nets. It hands
// that scope to both caches, which keep no copy of the circuit.
//
// What an edit needs at the size of the design but never commits — the
// Fig. 4 network, the sequential pairs and their constraints, the
// flip-flop index, the rollback snapshot of the dirty cells and the STA
// update's working memory — lives in a workspace the State owns for life
// and Apply reuses from edit to edit; a Fork starts with none, and its
// first Apply makes one. An edit still spends O(design) time, without
// allocating for it, in copying the pairs into constraints, the schedule
// re-check's one round over every constraint, the timing graph's re-level
// after a kind change or net edit, and the Fig. 4 network's refill, one
// AddArc per candidate; and, allocating, in the wirelength cache's copy
// and re-sum over every net and the quadratic-system rebuild after a net
// edit (DESIGN.md section 28).
//
// Outcome.Revert undoes a committed edit through the rollback a failed
// Apply runs, so a long-lived fork can apply an edit and return to its base.
//
// Every layer is exact, not approximate: the cached pairs are bit-equal to
// a full analysis, the warm-started schedule is the same fixpoint a batch
// solve reaches, the patched assignment is cost-equal to a scratch solve,
// and the cached wirelength is bit-equal to Circuit.SignalWL.
// Options.Scratch switches the layers to their from-scratch counterparts
// on the same orchestration, which is what bench.CompareECOArms, the
// ECO-vs-scratch differential check, compares against.
package eco

import (
	"rotaryclk/internal/assign"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/placer"
	"rotaryclk/internal/rotary"
	"rotaryclk/internal/skew"
	"rotaryclk/internal/stop"
	"rotaryclk/internal/timing"
)

// State is the live optimization state ECO deltas apply to: the placed
// circuit, its reusable solver structures, and the schedule/assignment pair
// the last flow run (or the last Apply) committed. Build one from a
// completed core.Result via core.NewECOState, or Fork one. Either way it
// holds both caches from the start. Apply mutates the circuit and, on
// success, the state; a failed or degraded Apply rolls both back.
type State struct {
	Circuit *netlist.Circuit
	Sys     *placer.System // quadratic system bound to Circuit
	Array   *rotary.Array  // the rotary ring array

	FFCells []int     // flip-flop cell IDs, in cell-ID order
	Sched   []float64 // delay targets, parallel to FFCells
	// Assign is parallel to FFCells. It also carries the candidate matrix
	// it was solved over, which the next Apply's patch reuses row by row.
	Assign *assign.Assignment

	// WorkSlack is the timing margin (ps) the schedule is feasible at; the
	// warm-started re-check starts from it and relaxes along the same
	// ladder the flow uses.
	WorkSlack float64

	// Pinned accumulates RetargetRing deltas: cell ID -> forced ring.
	Pinned map[int]int

	// STA is the timing cache of Circuit as last committed, built with
	// TModel. core.NewECOState builds it in full; Apply updates it over the
	// edit's scope copy-on-write (Scratch builds it in full again) and
	// commits the new value only with the rest of the state, so a
	// rolled-back Apply keeps the cache of the restored circuit. A cache
	// must describe this state's committed circuit; forks share it.
	STA *timing.STA
	// SignalWL is the per-net wirelength cache of Circuit as last
	// committed. It is built, updated, committed and shared like STA.
	SignalWL *SignalWL

	Params      rotary.Params
	TModel      timing.Model
	Parallelism int

	ws      *workspace // Apply's reusable buffers; nil until the first Apply
	applies uint64     // Apply calls, so a stale Revert can tell
}

// workspace holds what an edit needs at the size of the design but never
// commits: the STA update's and the Fig. 4 solve's working memory, the
// sequential pairs and their difference constraints, the flip-flop index,
// the rollback snapshot of the dirty cells and the assignment problem's
// flip-flops. Apply reuses it from edit to edit, and every buffer is
// rewritten before it is read, so an edit reads nothing an earlier edit,
// failed or committed, left there (DESIGN.md section 28). A State owns its
// workspace alone, for life.
type workspace struct {
	sta   timing.Workspace
	asg   assign.Workspace
	pairs []skew.SeqPair
	cons  []skew.DiffConstraint
	// ffIdx is timing.FFIndex of the flip-flop list ffIdxOf, updated in
	// O(flip-flops) per edit (ffIndex).
	ffIdx, ffIdxOf []int
	placedAt       []geom.Point // per dirty cell: its position before phase 2
	oldAt          []int        // per flip-flop: its committed schedule index
	seed           []float64
	ffs            []assign.FF
	pin            []int
}

// ffIndex returns the dense index timing.FFIndex(n, ffs) in w's storage,
// resetting only the entries of the list it indexed last.
func (w *workspace) ffIndex(n int, ffs []int) []int {
	if len(w.ffIdx) != n {
		w.ffIdx = timing.FFIndex(n, ffs)
	} else {
		for _, id := range w.ffIdxOf {
			w.ffIdx[id] = -1
		}
		for i, id := range ffs {
			w.ffIdx[id] = i
		}
	}
	w.ffIdxOf = ffs
	return w.ffIdx
}

// Options tunes one Apply call.
type Options struct {
	// Strict turns every failure into an error with the state rolled back.
	// Non-strict (default) rolls back too but reports the failure as a
	// Degraded outcome instead, mirroring the flow's degraded-result path.
	Strict bool
	// Scratch disables the incremental machinery: the quadratic system
	// rebuilds even when no net was edited, the schedule still warm-starts
	// from the same seed (the seed is semantics, not machinery), and the
	// assignment solves cold, every tapping row included. Same
	// orchestration, full recompute — the oracle's reference arm. Its
	// timing and wirelength are full builds (timing.NewSTA, NewSignalWL):
	// it reads neither State.STA nor State.SignalWL and commits the full
	// builds, bit-equal to what an incremental Apply would commit.
	Scratch bool
	Stop    *stop.Token
	Obs     *obs.Registry
}

// Outcome reports what one Apply did.
type Outcome struct {
	Deltas int // deltas applied (after no-op dropping)
	NoOps  int // deltas dropped as no-ops

	DirtyCells    int  // movable cells re-placed by the dirty-region solve
	MovedCells    int  // of those, how many actually changed position
	DirtyFFs      int  // flip-flops re-routed by the assignment patch
	SystemRebuilt bool // a net edit (or Scratch) rebuilt the quadratic system

	// SchedRounds counts the warm-start relaxation rounds of the last margin
	// tried. An infeasible margin stops at the round that exposes its
	// negative cycle, usually far below the n+1 cap.
	SchedRounds int
	WorkSlack   float64 // margin the committed schedule is feasible at

	// Degraded reports a non-strict failure: the state and circuit were
	// rolled back to their pre-Apply values and the remaining fields
	// describe that restored state. The triggering failure is the last
	// Events entry.
	Degraded bool
	Events   []string

	Total float64 // total tapping wirelength of the committed assignment

	// SignalWL is the signal wirelength of the committed (or, when
	// Degraded, the restored) circuit, bit-equal to Circuit.SignalWL.
	SignalWL float64

	// The commit's undo record: st is the state Apply committed to (nil
	// when it committed nothing, or once reverted), prev its value before
	// the commit, and rb the rollback of its circuit.
	st   *State
	prev State
	rb   rollback
}

// Revert undoes the edit out committed: it runs the rollback a failed
// Apply runs and restores the state's pre-commit fields (Sys, STA,
// SignalWL, FFCells, Sched, Assign, WorkSlack, Pinned), which Apply
// replaced but never wrote in place, so the state and its circuit are
// bit-equal to what they were before. It does nothing on a Degraded or
// all-no-op outcome, or when called again. It panics if another Apply ran
// on the state in between, because that Apply reused what it restores.
func (out *Outcome) Revert() {
	st := out.st
	if st == nil {
		return
	}
	if st.applies != out.prev.applies {
		panic("eco: Revert after a later Apply on the same state")
	}
	out.rb.run(st.Circuit)
	*st = out.prev
	out.st = nil
}

// Fork returns a state over a clone of st.Circuit as last committed that
// applies edits independently of st. Its quadratic system is built from
// that clone (placer.NewSystem, reporting to no registry), so the fork owns
// its circuit and its system alone. It shares everything else with st: the
// array, the flip-flop list, the schedule, the assignment with its
// candidate rows, Pinned, and both caches. Sharing is safe because Apply
// writes none of them in place: it commits fresh values, and it clones
// Pinned before a retarget writes it. The one thing Apply does write in
// place, its workspace, is never shared: the fork starts with none, and its
// first Apply makes its own. So forks of one state may Apply concurrently,
// one goroutine per fork.
func (st *State) Fork() (*State, error) {
	c := st.Circuit.Clone()
	sys, err := placer.NewSystem(c, nil)
	if err != nil {
		return nil, err
	}
	f := *st
	f.Circuit, f.Sys, f.ws = c, sys, nil
	return &f, nil
}

// clonePinned copies the pin map (nil stays nil until a retarget lands).
func clonePinned(m map[int]int) map[int]int {
	if m == nil {
		return nil
	}
	cp := make(map[int]int, len(m))
	for k, v := range m {
		cp[k] = v
	}
	return cp
}
