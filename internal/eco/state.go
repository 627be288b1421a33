// Package eco implements incremental engineering-change-order (ECO)
// re-optimization: after a completed placement-and-skew flow, small netlist
// deltas (moved or added flip-flops, ring retargets, net edits) are absorbed
// with bounded recompute instead of a full re-run. Three incremental layers
// do the work:
//
//  1. dirty-region placement — the quadratic system is patched in place
//     (placer.System.PatchNet) and only the cells whose connectivity or
//     neighborhood changed re-solve (placer.System.SolveDirty);
//  2. warm-started skew scheduling — the previous schedule seeds a
//     Bellman-Ford repair (skew.WarmStart) that re-checks every constraint
//     in one O(m) round and moves only the entries the edit forces;
//  3. assignment patching — the previous flip-flop-to-ring flow is
//     preloaded onto the residual network, stale routing is canceled away,
//     and only edited flip-flops re-route (assign.PatchMinCost).
//
// Every layer is exact, not approximate: the patched quadratic system is
// bit-identical to a rebuild, the warm-started schedule is the same fixpoint
// a batch solve reaches, and the patched assignment is cost-equal to a
// scratch solve. Options.Scratch switches all three layers to their
// from-scratch counterparts on the same orchestration, which is what the
// ECO-vs-scratch differential oracle (internal/oracle.CheckECO) compares
// against.
package eco

import (
	"rotaryclk/internal/assign"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/placer"
	"rotaryclk/internal/rotary"
	"rotaryclk/internal/stop"
	"rotaryclk/internal/timing"
)

// State is the live optimization state ECO deltas apply to: the placed
// circuit, its reusable solver structures, and the schedule/assignment pair
// the last flow run (or the last Apply) committed. Build one from a
// completed core.Result via core.NewECOState. Apply mutates the circuit and,
// on success, the state; a failed or degraded Apply rolls both back.
type State struct {
	Circuit *netlist.Circuit
	Sys     *placer.System   // quadratic system bound to Circuit
	Array   *rotary.Array    // the rotary ring array
	Cache   *assign.TapCache // tapping solves shared across applies

	FFCells []int              // flip-flop cell IDs, in cell-ID order
	Sched   []float64          // delay targets, parallel to FFCells
	Assign  *assign.Assignment // Assign.Ring is parallel to FFCells

	// WorkSlack is the timing margin (ps) the schedule is feasible at; the
	// warm-started re-check starts from it and relaxes along the same
	// ladder the flow uses.
	WorkSlack float64

	// Pinned accumulates RetargetRing deltas: cell ID -> forced ring.
	Pinned map[int]int

	Params      rotary.Params
	TModel      timing.Model
	Parallelism int
}

// Options tunes one Apply call.
type Options struct {
	// Strict turns every failure into an error with the state rolled back.
	// Non-strict (default) rolls back too but reports the failure as a
	// Degraded outcome instead, mirroring the flow's degraded-result path.
	Strict bool
	// Scratch disables the three incremental layers: the quadratic system
	// rebuilds instead of patching, the schedule still warm-starts from the
	// same seed (the seed is semantics, not machinery), and the assignment
	// solves cold with a fresh tapping cache. Same orchestration, full
	// recompute — the oracle's reference arm.
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
	SystemPatched int  // net edits absorbed by CSR patching
	SystemRebuilt bool // a class-changing edit forced a full rebuild

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

	FFCells []int
	Sched   []float64
	Assign  *assign.Assignment
	Total   float64 // total tapping wirelength of the committed assignment
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
