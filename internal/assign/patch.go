// Incremental re-assignment for the ECO flow: instead of solving the Fig. 4
// min-cost flow from scratch after a small edit, the previous assignment is
// preloaded onto a fresh residual network, negative residual cycles (stale
// routing exposed by the edit) are canceled away, and only the edited
// flip-flops are routed by successive shortest paths. Cycle canceling makes
// the preloaded flow minimum-cost for its value, and successive shortest
// paths preserve that invariant at every augmentation, so the patched
// assignment reaches the same optimum a scratch solve does — the property
// the ECO-vs-scratch oracle checks to 1e-6. The previous assignment also
// carries the candidate matrix it was solved over, so only the flip-flops
// whose tapping inputs changed are re-solved.
package assign

import (
	"errors"
	"fmt"
	"math"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/mcmf"
)

// PatchMinCost solves the Section V min-cost assignment warm-started from a
// previous solution prev, whose flip-flops are matched to p's by cell (nil:
// no prior, everything routes from scratch). A matched flip-flop keeps its
// candidate row from prev when the row's inputs are bit-equal: position,
// target and pinned ring, and the problem's ring array, K, TapFallback and
// MaxStub. Only the other rows are solved, and a reused row is identical to
// a fresh solve. dirty lists flip-flop indices whose prior ring must be
// discarded even if still plausible (moved, retargeted, or rescheduled
// flip-flops). Clean flip-flops with no prior ring, whose prior ring is no
// longer a candidate, or whose ring is already full, are demoted to dirty
// rather than erroring.
//
// It runs MinCost's Fig. 4 solver with a different preload: each clean
// flip-flop on its previous ring, then mcmf.CancelNegativeCycles to make
// that flow minimum-cost for its value, then Bellman-Ford potentials for
// augmenting the remaining flip-flops.
//
// The result is cost-equal to MinCost on the same Problem (the assignment
// itself may differ when optima tie). If cycle canceling fails to converge
// (mcmf.ErrCancelLimit — numerically pathological costs), the patch falls
// back to a cold MinCost solve; stop-token errors propagate unchanged.
func PatchMinCost(p *Problem, prev *Assignment, dirty []int) (*Assignment, error) {
	if err := p.normalize(); err != nil {
		return nil, err
	}
	reuse, prevRing, err := p.fromPrevious(prev)
	if err != nil {
		return nil, err
	}
	cands, err := p.candidates(reuse)
	if err != nil {
		return nil, err
	}
	reg := p.obsReg
	reg.Add("assign.patch.calls", 1)

	if faultinject.Hook(faultinject.SiteAssignPatch) != nil {
		// Injected corruption: return each flip-flop's most expensive
		// candidate — a structurally valid but deliberately non-optimal
		// assignment, the silent-wrong-answer failure mode the differential
		// oracle must detect (it carries no error for the caller to see).
		choice := make([]candidate, len(cands))
		for i, cs := range cands {
			choice[i] = cs[len(cs)-1]
		}
		return p.finish(cands, choice), nil
	}

	isDirty := make([]bool, len(p.FFs))
	for _, i := range dirty {
		if i >= 0 && i < len(isDirty) {
			isDirty[i] = true
		}
	}
	// Preload the clean flip-flops along their previous rings, respecting
	// the (possibly changed) capacities; anything that no longer fits routes
	// with the dirty set instead.
	preloadPrevious := func(n *network) ([]float64, error) {
		for i := range n.cands {
			if isDirty[i] {
				continue
			}
			for k, c := range n.cands[i] {
				if c.ring == prevRing[i] {
					n.route(i, k)
					break
				}
			}
		}
		reg.Add("assign.patch.preloaded", int64(n.preloaded))
		reg.Add("assign.patch.dirty", int64(len(n.cands)-n.preloaded))
		canceled, _, err := n.g.CancelNegativeCycles()
		if err != nil {
			return nil, err
		}
		reg.Add("assign.patch.cycles", int64(canceled))
		return nil, nil
	}
	choice, err := p.solveFlow(cands, preloadPrevious)
	if errors.Is(err, mcmf.ErrCancelLimit) {
		reg.Add("assign.patch.coldfall", 1)
		return MinCost(p)
	}
	if err != nil {
		return nil, fmt.Errorf("assign: patch: %w", err)
	}
	return p.finish(cands, choice), nil
}

// fromPrevious matches p's flip-flops to prev's by cell. It returns, per
// flip-flop, the ring prev assigned it (-1: none) and prev's candidate row
// where every input of that row is unchanged (nil: solve it). The
// assign.patch.reused counter records how many rows were kept.
func (p *Problem) fromPrevious(prev *Assignment) (reuse [][]candidate, prevRing []int, err error) {
	prevRing = make([]int, len(p.FFs))
	for i := range prevRing {
		prevRing[i] = -1
	}
	if prev == nil || prev.m == nil {
		return nil, prevRing, nil
	}
	m := prev.m
	if len(prev.Ring) != len(m.ffs) {
		return nil, nil, fmt.Errorf("assign: patch: %d previous rings for %d flip-flops", len(prev.Ring), len(m.ffs))
	}
	byCell := make(map[int]int, len(m.ffs))
	for j, ff := range m.ffs {
		byCell[ff.Cell] = j
	}
	bits := math.Float64bits
	sameInstance := m.array == p.Array && m.k == p.K && m.fallback == p.TapFallback && bits(m.maxStub) == bits(p.MaxStub)
	if sameInstance {
		reuse = make([][]candidate, len(p.FFs))
	}
	kept := 0
	for i, ff := range p.FFs {
		j, ok := byCell[ff.Cell]
		if !ok {
			continue
		}
		prevRing[i] = prev.Ring[j]
		old := m.ffs[j]
		if sameInstance && bits(ff.Pos.X) == bits(old.Pos.X) && bits(ff.Pos.Y) == bits(old.Pos.Y) &&
			bits(ff.Target) == bits(old.Target) && pinOf(p.Pin, i) == pinOf(m.pin, j) {
			reuse[i] = m.rows[j]
			kept++
		}
	}
	p.obsReg.Add("assign.patch.reused", int64(kept))
	return reuse, prevRing, nil
}
