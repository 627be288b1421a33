// Incremental re-assignment for the ECO flow: instead of solving the Fig. 4
// min-cost flow cold after a small edit, the patch starts MinCost's solver
// from the previous solve's ring prices, so the preload already reflects
// which rings the last optimum filled, and only the flip-flops the prices
// do not settle are routed by successive shortest paths. Any prices are a
// valid start, so the patched assignment reaches the same optimum a scratch
// solve does — the property the ECO-vs-scratch oracle checks to 1e-6. The
// previous assignment also carries the candidate matrix it was solved over,
// so only the flip-flops whose tapping inputs changed are re-solved.
package assign

import (
	"fmt"
	"math"

	"rotaryclk/internal/faultinject"
)

// PatchMinCost solves the Section V min-cost assignment warm-started from a
// previous solution prev, whose flip-flops are matched to p's by cell (nil:
// no prior, a cold solve). A matched flip-flop keeps its candidate row from
// prev when the row's inputs are bit-equal: position, target and pinned
// ring, and the problem's ring array, K and TapFallback. Only the
// other rows are solved, and a reused row is identical to a fresh solve.
//
// It runs MinCost's Fig. 4 solver from prev's ring prices when prev was a
// flow solve over the same ring array (DESIGN.md section 23): the preload
// puts each flip-flop on its cheapest ring under those prices, and the
// closed-form duals of that preload let successive shortest paths finish
// the rest. Nothing about the edit is needed — a moved, retargeted, pinned
// or new flip-flop simply has a new row. The result is cost-equal to
// MinCost on the same Problem (the assignment itself may differ when
// optima tie).
func PatchMinCost(p *Problem, prev *Assignment) (*Assignment, error) {
	if err := p.normalize(); err != nil {
		return nil, err
	}
	reuse, price, err := p.fromPrevious(prev)
	if err != nil {
		return nil, err
	}
	cands, err := p.candidates(reuse)
	if err != nil {
		return nil, err
	}
	p.Obs.Add("assign.patch.calls", 1)

	if faultinject.Hook(faultinject.SiteAssignPatch) != nil {
		// Injected corruption: return each flip-flop's most expensive
		// candidate — a structurally valid but deliberately non-optimal
		// assignment, the silent-wrong-answer failure mode the differential
		// oracle must detect (it carries no error for the caller to see).
		choice := make([]candidate, len(cands))
		for i, cs := range cands {
			choice[i] = cs[len(cs)-1]
		}
		return p.finish(cands, choice, nil), nil
	}

	choice, final, err := p.solveFlow(cands, price)
	if err != nil {
		return nil, fmt.Errorf("assign: patch: %w", err)
	}
	return p.finish(cands, choice, final), nil
}

// fromPrevious matches p's flip-flops to prev's by cell. When prev was
// solved over p's ring array, it returns prev's ring prices (nil for an
// assigner other than the flow) and, per flip-flop, prev's candidate row
// where every input of that row is unchanged (nil: solve it); otherwise
// neither. The assign.patch.reused counter records how many rows were kept.
func (p *Problem) fromPrevious(prev *Assignment) (reuse [][]candidate, price []float64, err error) {
	if prev == nil || prev.m == nil {
		return nil, nil, nil
	}
	m := prev.m
	if len(prev.Ring) != len(m.ffs) {
		return nil, nil, fmt.Errorf("assign: patch: %d previous rings for %d flip-flops", len(prev.Ring), len(m.ffs))
	}
	if m.array != p.Array {
		return nil, nil, nil
	}
	bits := math.Float64bits
	kept := 0
	if m.k == p.K && m.fallback == p.TapFallback {
		byCell := make(map[int]int, len(m.ffs))
		for j, ff := range m.ffs {
			byCell[ff.Cell] = j
		}
		reuse = make([][]candidate, len(p.FFs))
		for i, ff := range p.FFs {
			j, ok := byCell[ff.Cell]
			if !ok {
				continue
			}
			old := m.ffs[j]
			if bits(ff.Pos.X) == bits(old.Pos.X) && bits(ff.Pos.Y) == bits(old.Pos.Y) &&
				bits(ff.Target) == bits(old.Target) && pinOf(p.Pin, i) == pinOf(m.pin, j) {
				reuse[i] = m.rows[j]
				kept++
			}
		}
	}
	p.Obs.Add("assign.patch.reused", int64(kept))
	return reuse, m.price, nil
}
