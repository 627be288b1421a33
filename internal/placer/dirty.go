// Dirty-region incremental placement for the ECO flow: re-solving only a
// bounded dirty set of cells with the rest of the placement held as
// boundary conditions. A net edit changes the connectivity, so the ECO
// flow rebuilds the System with NewSystem first; this file only solves.
package placer

import (
	"fmt"
	"math"
	"sort"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/stop"
)

// SolveDirty re-places only the dirty movable cells, holding every other
// cell at its current position as a boundary condition. The dirty set plus
// the star nodes of nets touching it form the unknowns; each connected
// component solves independently with serial CG (so disjoint edits compose
// bit-identically whether batched or sequential), with stability anchors at
// Incremental's weight keeping the region from drifting. Positions write
// back clamped to the die. It returns the number of cells whose position
// changed. Cell IDs that are fixed or unknown are ignored.
//
// A component whose CG solve runs out of iterations keeps its best-effort
// iterate, as a stagnated Incremental does; the counters
// placer.dirty.cg.iters and placer.dirty.cg.stagnated (one per axis solve)
// record the work and any such solve.
func (s *System) SolveDirty(dirtyCells []int, tok *stop.Token) (int, error) {
	c := s.c
	if err := validate(c); err != nil {
		return 0, err
	}
	sub := map[int]bool{}
	for _, id := range dirtyCells {
		if i, ok := s.idx[id]; ok {
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

	s.obs.Add("placer.dirty.solves", 1)
	s.obs.Add("placer.dirty.cells", int64(len(order)))

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
		moved += s.solveComponent(comp)
		s.obs.Add("placer.dirty.components", 1)
	}
	return moved, nil
}

// solveComponent solves one connected dirty component: a small SPD system
// over the component's unknowns, with clean neighbors folded into the
// right-hand side at their current positions.
func (s *System) solveComponent(comp []int) int {
	c := s.c
	m := len(comp)
	local := make(map[int]int, m)
	for li, i := range comp {
		local[i] = li
	}
	diag := make([]float64, m)
	bx := make([]float64, m)
	by := make([]float64, m)
	x := make([]float64, m)
	y := make([]float64, m)
	type entry struct {
		j int
		w float64
	}
	rows := make([][]entry, m)
	for li, i := range comp {
		diag[li] = s.baseDiag[i]
		bx[li] = s.baseBx[i]
		by[li] = s.baseBy[i]
		if i < s.nMov {
			pos := c.Cells[s.cells[i]].Pos
			diag[li] += stabilityAnchor
			bx[li] += stabilityAnchor * pos.X
			by[li] += stabilityAnchor * pos.Y
			x[li], y[li] = pos.X, pos.Y
		} else {
			// Seed the star at its pin centroid, like prepare does.
			st := i - s.nMov
			lo, hi := s.starRow[st], s.starRow[st+1]
			var cx, cy float64
			for _, pid := range s.starPin[lo:hi] {
				pos := c.Cells[pid].Pos
				cx += pos.X
				cy += pos.Y
			}
			k := float64(hi - lo)
			x[li], y[li] = cx/k, cy/k
		}
		for a := s.rowStart[i]; a < s.rowStart[i+1]; a++ {
			j := int(s.cols[a])
			w := s.w[a]
			if lj, ok := local[j]; ok {
				rows[li] = append(rows[li], entry{j: lj, w: w})
			} else {
				// Clean movable neighbor: a boundary condition at its
				// current position. (Stars adjacent to component members
				// are in the component by construction, so j < nMov.)
				pos := c.Cells[s.cells[j]].Pos
				bx[li] += w * pos.X
				by[li] += w * pos.Y
			}
		}
		if diag[li] == 0 {
			center := c.Die.Center()
			diag[li] = 1e-3
			bx[li] = 1e-3 * center.X
			by[li] = 1e-3 * center.Y
		}
	}
	mul := func(v, out []float64) {
		for li := range out {
			acc := diag[li] * v[li]
			for _, e := range rows[li] {
				acc -= e.w * v[e.j]
			}
			out[li] = acc
		}
	}
	solve := func(v, b []float64) {
		iters, converged := cgSerial(mul, v, b)
		s.obs.Add("placer.dirty.cg.iters", int64(iters))
		if !converged {
			s.obs.Add("placer.dirty.cg.stagnated", 1)
		}
	}
	solve(x, bx)
	solve(y, by)
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
	return moved
}

// cgSerial is a deterministic single-threaded conjugate-gradients solve of
// mul(x) = b, warm-started from x, at the placer's default tolerance and
// cgMaxIter cap. It returns the iterations run and whether the residual
// reached the tolerance.
func cgSerial(mul func(v, out []float64), x, b []float64) (iters int, converged bool) {
	n := len(b)
	r := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)
	mul(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	copy(p, r)
	rr := 0.0
	bb := 0.0
	for i := range r {
		rr += r[i] * r[i]
		bb += b[i] * b[i]
	}
	tol2 := 1e-6 * 1e-6 * math.Max(bb, 1)
	for ; iters < cgMaxIter && rr > tol2; iters++ {
		mul(p, ap)
		pap := 0.0
		for i := range p {
			pap += p[i] * ap[i]
		}
		if pap <= 0 {
			break
		}
		alpha := rr / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		nrr := 0.0
		for i := range r {
			nrr += r[i] * r[i]
		}
		beta := nrr / rr
		rr = nrr
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
	}
	return iters, rr <= tol2
}
