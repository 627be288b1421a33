// Incremental re-assignment for the ECO flow: instead of solving the Fig. 4
// min-cost flow cold after a small edit, the patch starts MinCost's solver
// from the previous optimum, its ring prices and its rings, so a flip-flop
// the edit left alone is preloaded where it was, and only the flip-flops
// that start does not settle are routed by successive shortest paths. Any
// prices are a valid start, so the patched assignment reaches the same
// optimum a scratch solve does — the property the ECO-vs-scratch oracle
// checks to 1e-6. The previous assignment also carries the candidate
// matrix it was solved over, so only the flip-flops whose tapping inputs
// changed are re-solved.
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
// keeps each flip-flop with a reused row on its previous ring when that
// ring is still its cheapest under those prices, puts every other one on
// its cheapest ring, and the closed-form duals of that preload let
// successive shortest paths finish the rest. Nothing about the edit is
// needed — a moved, retargeted, pinned or new flip-flop simply has a new
// row. The result is cost-equal to MinCost on the same Problem (the
// assignment itself may differ when optima tie).
//
// ws, when non-nil, lends the solve its flow network and buffers, so a
// caller that patches one solve after another, such as an ECO state,
// allocates them once; nil allocates fresh ones. The answer never depends
// on ws, and the returned Assignment holds none of it.
func PatchMinCost(p *Problem, prev *Assignment, ws *Workspace) (*Assignment, error) {
	if err := p.normalize(); err != nil {
		return nil, err
	}
	if ws == nil {
		ws = &Workspace{}
	}
	price, err := p.fromPrevious(prev, ws, "assign.patch.reused")
	if err != nil {
		return nil, err
	}
	cands, near, err := p.candidates(ws.reuse, ws.near, true)
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
		return p.finish(cands, near, choice, nil), nil
	}

	choice, final, err := p.solveFlow(ws, cands, price, ws.rings)
	if err != nil {
		return nil, fmt.Errorf("assign: patch: %w", err)
	}
	return p.finish(cands, near, choice, final), nil
}

// fromPrevious matches p's flip-flops to prev's by cell. When prev was
// solved over p's ring array it returns prev's ring prices (nil for an
// assigner other than the flow) and fills ws's per-flip-flop lists from
// reusable: prev's candidate row and ring where every input of that row is
// unchanged (else nil and -1), and its candidate ring list where the
// position, pin and K are (else nil). Otherwise it leaves the lists empty.
// counter records how many rows were kept.
func (p *Problem) fromPrevious(prev *Assignment, ws *Workspace, counter string) (price []float64, err error) {
	ws.reuse, ws.near, ws.rings = ws.reuse[:0], ws.near[:0], ws.rings[:0]
	if prev == nil || prev.m == nil {
		return nil, nil
	}
	m := prev.m
	if len(prev.Ring) != len(m.ffs) {
		return nil, fmt.Errorf("assign: previous assignment has %d rings for %d flip-flops", len(prev.Ring), len(m.ffs))
	}
	if m.array != p.Array {
		return nil, nil
	}
	kept := 0
	if m.k == p.K {
		mapped := false
		ws.reuse = resize(ws.reuse, len(p.FFs))
		ws.near = resize(ws.near, len(p.FFs))
		ws.rings = resize(ws.rings, len(p.FFs))
		for i, ff := range p.FFs {
			ws.reuse[i], ws.near[i], ws.rings[i] = nil, nil, -1
			// The flow keeps its flip-flops in one order, so the same
			// index usually holds the same cell; the map is built only
			// when it does not.
			j, ok := i, i < len(m.ffs) && m.ffs[i].Cell == ff.Cell
			if !ok {
				if !mapped {
					if ws.byCell == nil {
						ws.byCell = make(map[int]int, len(m.ffs))
					}
					clear(ws.byCell)
					for j, ff := range m.ffs {
						ws.byCell[ff.Cell] = j
					}
					mapped = true
				}
				if j, ok = ws.byCell[ff.Cell]; !ok {
					continue
				}
			}
			near, row := p.reusable(m, i, j)
			if near && m.near != nil {
				ws.near[i] = m.near[j]
			}
			if row {
				ws.reuse[i] = m.rows[j]
				ws.rings[i] = prev.Ring[j]
				kept++
			}
		}
	}
	if m.fallback != p.TapFallback {
		ws.rings = ws.rings[:0] // no row was kept, so no previous ring either
	}
	p.Obs.Add(counter, int64(kept))
	return m.price, nil
}

// reusable is the one rule for what flip-flop i of p may take over from
// flip-flop j of the previous matrix m, built over p's ring array at p's K:
// its candidate ring list when the position and pin are bit-equal, and its
// whole row when the target and TapFallback are too.
func (p *Problem) reusable(m *matrix, i, j int) (near, row bool) {
	bits := math.Float64bits
	ff, old := p.FFs[i], m.ffs[j]
	near = bits(ff.Pos.X) == bits(old.Pos.X) && bits(ff.Pos.Y) == bits(old.Pos.Y) &&
		ringAt(p.Pin, i) == ringAt(m.pin, j)
	row = near && bits(ff.Target) == bits(old.Target) && m.fallback == p.TapFallback
	return near, row
}
