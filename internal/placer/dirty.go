// Dirty-region incremental placement for the ECO flow: re-solving only a
// bounded dirty set of cells with the rest of the placement held as
// boundary conditions. A net edit changes the connectivity, so the ECO
// flow rebuilds the System with NewSystem first; this file only solves.
package placer

import (
	"fmt"
	"sort"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/stop"
)

// SolveDirty re-places only the dirty movable cells, holding every other
// cell at its current position as a boundary condition. The dirty set plus
// the star nodes of nets touching it form the unknowns; each connected
// component solves independently with the placer's CG kernel run serially
// (so disjoint edits compose bit-identically whether batched or
// sequential), with stability anchors at Incremental's weight keeping the
// region from drifting. Positions write back clamped to the die. It returns
// the number of cells whose position changed. Cell IDs that are fixed or
// unknown are ignored.
//
// A component whose CG solve runs out of iterations keeps its best-effort
// iterate, as a stagnated Incremental does; the counters
// placer.dirty.cg.iters and placer.dirty.cg.stagnated (one per axis solve)
// record the work and any such solve; every counter goes to reg, the
// caller's registry, not the system's. The stop token is checked between
// components and once per CG iteration; a fired token returns an error
// wrapping the stop sentinel, with the interrupted component's cells left
// where they were.
func (s *System) SolveDirty(dirtyCells []int, tok *stop.Token, reg *obs.Registry) (int, error) {
	c := s.c
	if err := validate(c); err != nil {
		return 0, err
	}
	sub := map[int]bool{}
	for _, id := range dirtyCells {
		if i, ok := s.unknown(id); ok {
			sub[i] = true
		}
	}
	if len(sub) == 0 {
		return 0, nil
	}
	// Pull in the star nodes adjacent to dirty cells: their positions are
	// not stored anywhere, so they must be unknowns too. (Stars only
	// neighbor cells, so one hop closes the set.)
	for i := range sub {
		if i >= s.nMov {
			continue
		}
		for a := s.rowStart[i]; a < s.rowStart[i+1]; a++ {
			if j := int(s.cols[a]); j >= s.nMov {
				sub[j] = true
			}
		}
	}
	order := make([]int, 0, len(sub))
	for i := range sub {
		order = append(order, i)
	}
	sort.Ints(order)

	reg.Add("placer.dirty.solves", 1)
	reg.Add("placer.dirty.cells", int64(len(order)))

	ws := wsPool.Get().(*solveWS)
	defer wsPool.Put(ws)
	moved := 0
	seen := map[int]bool{}
	for _, root := range order {
		if seen[root] {
			continue
		}
		if err := stop.Check(tok, faultinject.SitePlacerDirtyCancel); err != nil {
			return moved, fmt.Errorf("placer: dirty-region solve: %w", err)
		}
		// Collect the connected component (deterministic: sorted frontier).
		comp := []int{root}
		seen[root] = true
		for f := 0; f < len(comp); f++ {
			i := comp[f]
			for a := s.rowStart[i]; a < s.rowStart[i+1]; a++ {
				j := int(s.cols[a])
				if sub[j] && !seen[j] {
					seen[j] = true
					comp = append(comp, j)
				}
			}
		}
		sort.Ints(comp)
		m, err := s.solveComponent(comp, &ws.cg, tok, reg)
		if err != nil {
			return moved, fmt.Errorf("placer: dirty-region solve: %w", err)
		}
		moved += m
		reg.Add("placer.dirty.components", 1)
	}
	return moved, nil
}

// solveComponent solves one connected dirty component: the component's
// local SPD system, with clean neighbors folded into the right-hand side at
// their current positions, through the CG kernel at the default tolerance,
// one walk advancing both axes.
func (s *System) solveComponent(comp []int, cs *cgScratch, tok *stop.Token, reg *obs.Registry) (int, error) {
	c := s.c
	m := len(comp)
	local := make(map[int]int, m)
	for li, i := range comp {
		local[i] = li
	}
	a := spd{diag: make([]float64, m), rowStart: make([]int32, m+1)}
	bx := make([]float64, m)
	by := make([]float64, m)
	x := make([]float64, m)
	y := make([]float64, m)
	for li, i := range comp {
		a.diag[li] = s.baseDiag[i]
		bx[li] = s.baseBx[i]
		by[li] = s.baseBy[i]
		if i < s.nMov {
			pos := c.Cells[s.cells[i]].Pos
			a.diag[li] += stabilityAnchor
			bx[li] += stabilityAnchor * pos.X
			by[li] += stabilityAnchor * pos.Y
			x[li], y[li] = pos.X, pos.Y
		} else {
			x[li], y[li] = s.starSeed(i)
		}
		for k := s.rowStart[i]; k < s.rowStart[i+1]; k++ {
			j := int(s.cols[k])
			w := s.w[k]
			if lj, ok := local[j]; ok {
				a.cols = append(a.cols, int32(lj))
				a.w = append(a.w, w)
			} else {
				// Clean movable neighbor: a boundary condition at its
				// current position. (Stars adjacent to component members
				// are in the component by construction, so j < nMov.)
				pos := c.Cells[s.cells[j]].Pos
				bx[li] += w * pos.X
				by[li] += w * pos.Y
			}
		}
		a.rowStart[li+1] = int32(len(a.cols))
		if a.diag[li] == 0 {
			center := c.Die.Center()
			a.diag[li] = 1e-3
			bx[li] = 1e-3 * center.X
			by[li] = 1e-3 * center.Y
		}
	}
	cs.bind(0, x, bx)
	cs.bind(1, y, by)
	err := a.cg(cs.lanes[:2], 1e-6, cgMaxIter, tok)
	for i := range cs.lanes {
		res := cs.lanes[i].res
		reg.Add("placer.dirty.cg.iters", int64(res.iters))
		if !res.converged && !res.stopped {
			reg.Add("placer.dirty.cg.stagnated", 1)
		}
	}
	if err != nil {
		return 0, err
	}
	moved := 0
	for li, i := range comp {
		if i >= s.nMov {
			continue
		}
		cell := c.Cells[s.cells[i]]
		p := c.Die.Clamp(geom.Pt(x[li], y[li]))
		if p != cell.Pos {
			moved++
		}
		cell.Pos = p
	}
	return moved, nil
}
