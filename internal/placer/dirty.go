// Dirty-region incremental placement for the ECO flow: patching the
// immutable CSR connectivity after a single-net edit (instead of a full
// NewSystem assembly) and re-solving only a bounded dirty set of cells with
// the rest of the placement held as boundary conditions.
package placer

import (
	"fmt"
	"math"
	"sort"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/stop"
)

// PatchNet returns a System rebound to the bound circuit after net netID's
// pin list changed from oldPins to its current value, recomputing only the
// CSR rows whose connectivity the edit touched (the net's old and new
// movable pins plus its star row) and block-copying every other row. The
// patched System is a new value sharing no immutable arrays with the
// receiver, so a receiver forked from a shared template stays untouched and
// the caller can roll back by keeping the old pointer.
//
// Only star-class-preserving edits are patchable: the edit must leave the
// net with 3+ pins before and after (a 2-pin net's class flips on any pin
// edit, shifting every star index after it). Class-changing edits return
// patched == false with a nil System; the caller rebuilds via NewSystem.
// The result is bit-identical to NewSystem on the edited circuit — the
// contract TestPatchNetMatchesRebuild locks.
func (s *System) PatchNet(netID int, oldPins []int) (*System, bool, error) {
	c := s.c
	if netID < 0 || netID >= len(c.Nets) {
		return nil, false, fmt.Errorf("placer: patch: net %d out of range (%d nets)", netID, len(c.Nets))
	}
	if err := validate(c); err != nil {
		return nil, false, err
	}
	newPins := c.Nets[netID].Pins
	if len(oldPins) < 3 || len(newPins) < 3 {
		return nil, false, nil
	}

	// Star ordinals are stable under a class-preserving edit: the star of
	// net e is still the count of 3+-pin nets before e.
	starOf := make(map[int]int)
	ord := 0
	for id, net := range c.Nets {
		if len(net.Pins) >= 3 {
			starOf[id] = ord
			ord++
		}
	}
	starIdx := s.nMov + starOf[netID]

	// Affected rows: every movable pin of the old and new pin lists (the
	// star weight k/(k-1)/2 changed for all of them) plus the star row.
	affected := map[int]bool{starIdx: true}
	for _, pid := range oldPins {
		if i, ok := s.idx[pid]; ok {
			affected[i] = true
		}
	}
	for _, pid := range newPins {
		if i, ok := s.idx[pid]; ok {
			affected[i] = true
		}
	}

	// Per-row entry-count deltas from the pin diff: a movable pin gained
	// (lost) adds (removes) one entry in its own row and one in the star
	// row. Fixed pins carry no CSR entries (they fold into the base RHS).
	diff := map[int]int{}
	for _, pid := range oldPins {
		diff[pid]--
	}
	for _, pid := range newPins {
		diff[pid]++
	}
	degDelta := map[int]int{}
	for pid, d := range diff {
		if d == 0 {
			continue
		}
		if i, ok := s.idx[pid]; ok {
			degDelta[i] += d
			degDelta[starIdx] += d
		}
	}

	n := s.n
	ns := &System{
		c:        c,
		n:        n,
		nMov:     s.nMov,
		rowStart: make([]int32, n+1),
		baseDiag: make([]float64, n),
		baseBx:   make([]float64, n),
		baseBy:   make([]float64, n),
		starRow:  make([]int32, len(s.starRow)),
		cells:    s.cells,
		idx:      s.idx,
		diag:     make([]float64, n),
		bx:       make([]float64, n),
		by:       make([]float64, n),
		posX:     make([]float64, n),
		posY:     make([]float64, n),
		obs:      s.obs,
	}
	for i := 0; i < n; i++ {
		deg := int(s.rowStart[i+1]-s.rowStart[i]) + degDelta[i]
		ns.rowStart[i+1] = ns.rowStart[i] + int32(deg)
	}
	total := int(ns.rowStart[n])
	ns.cols = make([]int32, total)
	ns.w = make([]float64, total)
	ns.wcur = ns.w
	copy(ns.baseDiag, s.baseDiag)
	copy(ns.baseBx, s.baseBx)
	copy(ns.baseBy, s.baseBy)

	// Unaffected rows: block-copy entries (offsets may have shifted).
	for i := 0; i < n; i++ {
		if affected[i] {
			continue
		}
		src := s.rowStart[i]
		dst := ns.rowStart[i]
		cnt := s.rowStart[i+1] - src
		copy(ns.cols[dst:dst+cnt], s.cols[src:src+cnt])
		copy(ns.w[dst:dst+cnt], s.w[src:src+cnt])
	}

	// Affected rows: recompute from the edited circuit in NewSystem's
	// traversal order. A cell row's entries appear in ascending incident
	// net order (the fill pass walks nets in ID order); a star row's in the
	// net's pin order.
	for i := range affected {
		ns.baseDiag[i] = 0
		ns.baseBx[i] = 0
		ns.baseBy[i] = 0
		at := ns.rowStart[i]
		put := func(j int, w float64) {
			ns.cols[at] = int32(j)
			ns.w[at] = w
			at++
		}
		if i >= s.nMov {
			// Star row: the edited net's pins in order.
			net := c.Nets[netID]
			k := len(net.Pins)
			w := float64(k) / float64(k-1) / 2
			for _, pid := range net.Pins {
				if ip, ok := s.idx[pid]; ok {
					ns.baseDiag[i] += w
					put(ip, w)
				} else {
					pos := c.Cells[pid].Pos
					ns.baseDiag[i] += w
					ns.baseBx[i] += w * pos.X
					ns.baseBy[i] += w * pos.Y
				}
			}
			continue
		}
		cid := s.cells[i]
		cell := c.Cells[cid]
		nets := make([]int, 0, len(cell.Fanin)+1)
		nets = append(nets, cell.Fanin...)
		if cell.Fanout >= 0 {
			nets = append(nets, cell.Fanout)
		}
		sort.Ints(nets)
		for _, e := range nets {
			net := c.Nets[e]
			k := len(net.Pins)
			if k < 2 {
				continue
			}
			if k == 2 {
				other := net.Pins[0]
				if other == cid {
					other = net.Pins[1]
				}
				if j, ok := s.idx[other]; ok {
					ns.baseDiag[i]++
					put(j, 1)
				} else {
					pos := c.Cells[other].Pos
					ns.baseDiag[i]++
					ns.baseBx[i] += pos.X
					ns.baseBy[i] += pos.Y
				}
				continue
			}
			w := float64(k) / float64(k-1) / 2
			ns.baseDiag[i] += w
			put(s.nMov+starOf[e], w)
		}
		if at != ns.rowStart[i+1] {
			return nil, false, fmt.Errorf("placer: patch: row %d filled %d of %d entries", i, at-ns.rowStart[i], ns.rowStart[i+1]-ns.rowStart[i])
		}
	}

	// Star pin list: splice the edited net's pins in place; offsets after
	// it shift by the length difference.
	st := starOf[netID]
	lo, hi := s.starRow[st], s.starRow[st+1]
	shift := int32(len(newPins)) - (hi - lo)
	ns.starPin = make([]int32, int32(len(s.starPin))+shift)
	copy(ns.starPin[:lo], s.starPin[:lo])
	for k, pid := range newPins {
		ns.starPin[int(lo)+k] = int32(pid)
	}
	copy(ns.starPin[lo+int32(len(newPins)):], s.starPin[hi:])
	copy(ns.starRow[:st+1], s.starRow[:st+1])
	for k := st + 1; k < len(s.starRow); k++ {
		ns.starRow[k] = s.starRow[k] + shift
	}

	ns.obs.Add("placer.system.patches", 1)
	return ns, true, nil
}

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
