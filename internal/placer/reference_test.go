package placer

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
)

// The reference arms below are verbatim copies of the quadratic system's
// former second implementations: NewSystem's own fill pass, the
// applyNetWeights replay of it, and the dirty-region solve on its own
// unpreconditioned serial CG. Only the receivers and return values are
// adapted, and the dirty solve's telemetry and stop checks are dropped. The
// differential tests hold the one fill and the one CG kernel to them.

// refSystem holds the arrays the reference build and replay produce.
type refSystem struct {
	c        *netlist.Circuit
	n, nMov  int
	idx      map[int]int
	rowStart []int32
	cols     []int32
	w        []float64
	baseDiag []float64
	baseBx   []float64
	baseBy   []float64
	starRow  []int32
	starPin  []int32

	diag, bx, by []float64
	wScaled      []float64
	rowNext      []int32
}

// refNewSystem is the reference build: a counting pass, then a fill pass
// that also records the star pin lists.
func refNewSystem(c *netlist.Circuit) *refSystem {
	idx := map[int]int{} // cell ID -> unknown index
	var cells []int
	for _, cell := range c.Cells {
		if !cell.Fixed {
			idx[cell.ID] = len(cells)
			cells = append(cells, cell.ID)
		}
	}
	nMov := len(cells)
	// Count star nodes and their pins.
	nStar, nStarPin := 0, 0
	for _, n := range c.Nets {
		if len(n.Pins) >= 3 {
			nStar++
			nStarPin += len(n.Pins)
		}
	}
	n := nMov + nStar
	s := &refSystem{
		c:        c,
		n:        n,
		nMov:     nMov,
		idx:      idx,
		baseDiag: make([]float64, n),
		baseBx:   make([]float64, n),
		baseBy:   make([]float64, n),
		starRow:  make([]int32, nStar+1),
		starPin:  make([]int32, 0, nStarPin),
		diag:     make([]float64, n),
		bx:       make([]float64, n),
		by:       make([]float64, n),
	}

	// Counting pass: per-row adjacency degrees (each edge contributes one
	// entry to both endpoint rows).
	deg := make([]int32, n+1)
	star := nMov
	for _, net := range c.Nets {
		k := len(net.Pins)
		if k < 2 {
			continue
		}
		if k == 2 {
			ia, aOK := idx[net.Pins[0]]
			ib, bOK := idx[net.Pins[1]]
			if aOK && bOK {
				deg[ia]++
				deg[ib]++
			}
			continue
		}
		for _, pid := range net.Pins {
			if ip, ok := idx[pid]; ok {
				deg[ip]++
				deg[star]++
			}
		}
		star++
	}
	s.rowStart = make([]int32, n+1)
	for i := 0; i < n; i++ {
		s.rowStart[i+1] = s.rowStart[i] + deg[i]
	}
	total := int(s.rowStart[n])
	s.cols = make([]int32, total)
	s.w = make([]float64, total)

	// Fill pass: identical net traversal, so per-row neighbor order and the
	// diag/bx/by accumulation order match the historical slice-of-slices
	// build exactly (the bit-identity contract of DESIGN.md section 10).
	next := make([]int32, n)
	copy(next, s.rowStart[:n])
	addEdge := func(i, j int, w float64) {
		s.baseDiag[i] += w
		s.baseDiag[j] += w
		s.cols[next[i]] = int32(j)
		s.w[next[i]] = w
		next[i]++
		s.cols[next[j]] = int32(i)
		s.w[next[j]] = w
		next[j]++
	}
	addAnchor := func(i int, p geom.Point, w float64) {
		s.baseDiag[i] += w
		s.baseBx[i] += w * p.X
		s.baseBy[i] += w * p.Y
	}
	star = nMov
	si := 0
	for _, net := range c.Nets {
		k := len(net.Pins)
		if k < 2 {
			continue
		}
		if k == 2 {
			a, b := net.Pins[0], net.Pins[1]
			ia, aOK := idx[a]
			ib, bOK := idx[b]
			switch {
			case aOK && bOK:
				addEdge(ia, ib, 1)
			case aOK:
				addAnchor(ia, c.Cells[b].Pos, 1)
			case bOK:
				addAnchor(ib, c.Cells[a].Pos, 1)
			}
			continue
		}
		// Star: every pin connects to the star node with weight k/(k-1).
		// The pin list is recorded so prepare can re-seed the star at the
		// pins' current centroid before every solve.
		w := float64(k) / float64(k-1) / 2
		for _, pid := range net.Pins {
			s.starPin = append(s.starPin, int32(pid))
			if ip, ok := idx[pid]; ok {
				addEdge(ip, star, w)
			} else {
				addAnchor(star, c.Cells[pid].Pos, w)
			}
		}
		s.starRow[si+1] = int32(len(s.starPin))
		si++
		star++
	}
	return s
}

// applyNetWeights is the reference replay of the fill pass under a per-net
// scale.
func (s *refSystem) applyNetWeights(scale []float64) {
	if s.wScaled == nil {
		s.wScaled = make([]float64, len(s.w))
		s.rowNext = make([]int32, s.n)
	}
	for i := 0; i < s.n; i++ {
		s.diag[i], s.bx[i], s.by[i] = 0, 0, 0
	}
	c := s.c
	next := s.rowNext
	copy(next, s.rowStart[:s.n])
	addEdge := func(i, j int, w float64) {
		s.diag[i] += w
		s.diag[j] += w
		s.wScaled[next[i]] = w
		next[i]++
		s.wScaled[next[j]] = w
		next[j]++
	}
	addAnchor := func(i int, p geom.Point, w float64) {
		s.diag[i] += w
		s.bx[i] += w * p.X
		s.by[i] += w * p.Y
	}
	// Armed SitePlacerReweight silently perturbs every scale, breaking the
	// all-ones bit-identity contract — the wrong-answer failure mode the
	// core/timing-identity oracle must catch.
	perturb := 0.0
	if faultinject.Hook(faultinject.SitePlacerReweight) != nil {
		perturb = 1e-3
	}
	sc := func(ni int) float64 {
		f := perturb
		if ni < len(scale) {
			return scale[ni] + f
		}
		return 1 + f
	}
	star := s.nMov
	for ni, net := range c.Nets {
		k := len(net.Pins)
		if k < 2 {
			continue
		}
		f := sc(ni)
		if k == 2 {
			a, b := net.Pins[0], net.Pins[1]
			ia, aOK := s.idx[a]
			ib, bOK := s.idx[b]
			switch {
			case aOK && bOK:
				addEdge(ia, ib, 1*f)
			case aOK:
				addAnchor(ia, c.Cells[b].Pos, 1*f)
			case bOK:
				addAnchor(ib, c.Cells[a].Pos, 1*f)
			}
			continue
		}
		w := float64(k) / float64(k-1) / 2 * f
		for _, pid := range net.Pins {
			if ip, ok := s.idx[pid]; ok {
				addEdge(ip, star, w)
			} else {
				addAnchor(star, c.Cells[pid].Pos, w)
			}
		}
		star++
	}
}

// refComponent is one component the reference dirty solve visited.
type refComponent struct {
	comp  []int
	moved int
}

// refSolveDirty is the reference dirty-region solve: the component walk of
// SolveDirty with each component solved by refSolveComponent. It reports
// the components in solve order.
func refSolveDirty(s *System, dirtyCells []int) []refComponent {
	sub := map[int]bool{}
	for _, id := range dirtyCells {
		if i, ok := s.unknown(id); ok {
			sub[i] = true
		}
	}
	if len(sub) == 0 {
		return nil
	}
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

	var out []refComponent
	seen := map[int]bool{}
	for _, root := range order {
		if seen[root] {
			continue
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
		out = append(out, refComponent{comp: comp, moved: refSolveComponent(s, comp)})
	}
	return out
}

// refSolveComponent solves one connected dirty component: a small SPD system
// over the component's unknowns, with clean neighbors folded into the
// right-hand side at their current positions.
func refSolveComponent(s *System, comp []int) int {
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
	refCGSerial(mul, x, bx)
	refCGSerial(mul, y, by)
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

// refCGSerial is a deterministic single-threaded conjugate-gradients solve
// of mul(x) = b, warm-started from x, at the placer's default tolerance and
// cgMaxIter cap. It returns the iterations run and whether the residual
// reached the tolerance.
func refCGSerial(mul func(v, out []float64), x, b []float64) (iters int, converged bool) {
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

// sameBits fails the test unless a and b are Float64bits-equal.
func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", label, i, got[i], want[i])
		}
	}
}

func sameInt32s(t *testing.T, label string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d, reference %d", label, i, got[i], want[i])
		}
	}
}

// diffCircuits are the generated circuits of the differential tests: a
// spread of sizes, flip-flop shares and seeds, so 2-pin edges, fixed-pin
// anchors and stars of every degree all occur.
func diffCircuits(t *testing.T) []*netlist.Circuit {
	t.Helper()
	var cs []*netlist.Circuit
	for i, spec := range []netlist.GenSpec{
		{Cells: 60, FlipFlops: 8, Seed: 1},
		{Cells: 300, FlipFlops: 40, Seed: 2},
		{Cells: 800, FlipFlops: 16, Seed: 3},
		{Cells: 1500, FlipFlops: 200, Seed: 4},
	} {
		spec.Name = "diff"
		c, err := netlist.Generate(spec)
		if err != nil {
			t.Fatalf("circuit %d: %v", i, err)
		}
		cs = append(cs, c)
	}
	return cs
}

// TestFillMatchesReference: NewSystem and the applyNetWeights overlay,
// which now share one fill, produce the reference build's and replay's
// arrays bit for bit, under random, short, all-zero and empty scale vectors
// and with SitePlacerReweight armed; and the overlay writes none of the
// arrays a Fork shares.
func TestFillMatchesReference(t *testing.T) {
	for ci, c := range diffCircuits(t) {
		s, err := NewSystem(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref := refNewSystem(c)
		sameInt32s(t, "rowStart", s.rowStart, ref.rowStart)
		sameInt32s(t, "cols", s.cols, ref.cols)
		sameBits(t, "w", s.w, ref.w)
		sameBits(t, "baseDiag", s.baseDiag, ref.baseDiag)
		sameBits(t, "baseBx", s.baseBx, ref.baseBx)
		sameBits(t, "baseBy", s.baseBy, ref.baseBy)
		sameInt32s(t, "starRow", s.starRow, ref.starRow)
		sameInt32s(t, "starPin", s.starPin, ref.starPin)

		shared := refNewSystem(c) // an untouched copy of the shared arrays
		rng := rand.New(rand.NewSource(int64(ci)))
		random := make([]float64, len(c.Nets))
		for i := range random {
			random[i] = 0.25 + 4*rng.Float64()
		}
		scales := map[string][]float64{
			"random": random,
			"short":  random[:len(random)/3],
			"zero":   make([]float64, len(c.Nets)),
			"empty":  nil,
		}
		for _, name := range []string{"random", "short", "zero", "empty", "perturbed"} {
			scale := scales[name]
			if name == "perturbed" {
				scale = random
				restore := faultinject.Enable(faultinject.Rule{Site: faultinject.SitePlacerReweight, Err: errInjected})
				s.applyNetWeights(scale)
				ref.applyNetWeights(scale)
				restore()
			} else {
				s.applyNetWeights(scale)
				ref.applyNetWeights(scale)
			}
			label := func(a string) string { return name + " " + a }
			sameBits(t, label("wScaled"), s.wScaled, ref.wScaled)
			sameBits(t, label("diag"), s.diag, ref.diag)
			sameBits(t, label("bx"), s.bx, ref.bx)
			sameBits(t, label("by"), s.by, ref.by)
			if &s.wcur[0] != &s.wScaled[0] {
				t.Fatalf("%s: the kernel does not read the scaled weights", name)
			}

			sameInt32s(t, label("shared rowStart"), s.rowStart, shared.rowStart)
			sameInt32s(t, label("shared cols"), s.cols, shared.cols)
			sameBits(t, label("shared w"), s.w, shared.w)
			sameBits(t, label("shared baseDiag"), s.baseDiag, shared.baseDiag)
			sameBits(t, label("shared baseBx"), s.baseBx, shared.baseBx)
			sameBits(t, label("shared baseBy"), s.baseBy, shared.baseBy)
			sameInt32s(t, label("shared starRow"), s.starRow, shared.starRow)
			sameInt32s(t, label("shared starPin"), s.starPin, shared.starPin)
		}
	}
}

// errInjected is the error the fault-injection rule above carries.
var errInjected = errors.New("injected")

// TestSolveDirtyMatchesReference: the dirty-region solve on the shared PCG
// kernel visits the reference's components, moves the same number of cells,
// and lands every cell within 1e-6 of the die span of the reference's
// unpreconditioned serial CG answer.
func TestSolveDirtyMatchesReference(t *testing.T) {
	worst := 0.0
	for ci, base := range diffCircuits(t) {
		if err := Global(base, Options{SpreadIters: 4}); err != nil {
			t.Fatal(err)
		}
		movable := []int{}
		for _, cell := range base.Cells {
			if !cell.Fixed {
				movable = append(movable, cell.ID)
			}
		}
		rng := rand.New(rand.NewSource(int64(100 + ci)))
		span := math.Max(base.Die.W(), base.Die.H())
		for _, k := range []int{1, 5, 40, len(movable) / 10} {
			dirty := make([]int, k)
			for i := range dirty {
				dirty[i] = movable[rng.Intn(len(movable))]
			}

			cRef := base.Clone()
			sysRef, err := NewSystem(cRef, nil)
			if err != nil {
				t.Fatal(err)
			}
			comps := refSolveDirty(sysRef, dirty)
			refMoved := 0
			for _, rc := range comps {
				refMoved += rc.moved
			}

			// One component at a time: the same components move the same
			// number of cells.
			cComp := base.Clone()
			sysComp, err := NewSystem(cComp, nil)
			if err != nil {
				t.Fatal(err)
			}
			var cs cgScratch
			for i, rc := range comps {
				moved, err := sysComp.solveComponent(rc.comp, &cs, nil)
				if err != nil {
					t.Fatal(err)
				}
				if moved != rc.moved {
					t.Fatalf("circuit %d, %d dirty, component %d: moved %d, reference %d", ci, k, i, moved, rc.moved)
				}
			}

			c := base.Clone()
			reg := obs.NewRegistry()
			sys, err := NewSystem(c, reg)
			if err != nil {
				t.Fatal(err)
			}
			moved, err := sys.SolveDirty(dirty, nil)
			if err != nil {
				t.Fatal(err)
			}
			if moved != refMoved {
				t.Fatalf("circuit %d, %d dirty: moved %d, reference %d", ci, k, moved, refMoved)
			}
			if got := reg.Counter("placer.dirty.components"); got != int64(len(comps)) {
				t.Fatalf("circuit %d, %d dirty: %d components, reference %d", ci, k, got, len(comps))
			}
			for _, got := range [][]geom.Point{c.Positions(), cComp.Positions()} {
				want := cRef.Positions()
				for i := range want {
					d := math.Max(math.Abs(got[i].X-want[i].X), math.Abs(got[i].Y-want[i].Y)) / span
					worst = math.Max(worst, d)
					if d > 1e-6 {
						t.Fatalf("circuit %d, %d dirty: cell %d at %v, reference %v (%.3g of the die span)", ci, k, i, got[i], want[i], d)
					}
				}
			}
		}
	}
	t.Logf("largest drift from the reference: %.3g of the die span", worst)
}

// refDetailed is a verbatim copy of the former swap loop, which scored every
// candidate by rescanning each net of both cells (refNetHPWL, a copy of the
// deleted Circuit.NetHPWL). Only the excluding variant is kept; a nil
// exclude is the plain Detailed call.
func refDetailed(c *netlist.Circuit, passes int, exclude []int) (float64, error) {
	if err := validate(c); err != nil {
		return 0, err
	}
	if passes <= 0 {
		passes = 3
	}
	excluded := make(map[int]bool, len(exclude))
	for _, id := range exclude {
		excluded[id] = true
	}
	// Precompute, per movable cell, the nets it pins.
	type cellNets struct {
		id   int
		nets []int
	}
	var cells []cellNets
	cellPos := map[int]int{} // cell ID -> index in cells
	for _, cell := range c.Cells {
		if cell.Fixed || cell.W <= 0 || excluded[cell.ID] {
			continue
		}
		cellPos[cell.ID] = len(cells)
		cells = append(cells, cellNets{id: cell.ID})
	}
	if len(cells) < 2 {
		return 0, nil
	}
	for _, n := range c.Nets {
		if len(n.Pins) < 2 {
			continue
		}
		for _, id := range n.Pins {
			if k, ok := cellPos[id]; ok {
				cells[k].nets = append(cells[k].nets, n.ID)
			}
		}
	}

	// netHPWL of the subset of nets, at current positions.
	netsWL := func(nets []int) float64 {
		wl := 0.0
		for _, nid := range nets {
			wl += refNetHPWL(c, c.Nets[nid])
		}
		return wl
	}
	// union of two cells' nets without duplicates (both small).
	union := func(a, b []int) []int {
		out := append([]int(nil), a...)
		for _, n := range b {
			dup := false
			for _, m := range a {
				if m == n {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, n)
			}
		}
		return out
	}

	total := 0.0
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	for pass := 0; pass < passes; pass++ {
		// Deterministic sweep in x-major order of current positions.
		sort.SliceStable(order, func(a, b int) bool {
			pa := c.Cells[cells[order[a]].id].Pos
			pb := c.Cells[cells[order[b]].id].Pos
			if pa.X != pb.X {
				return pa.X < pb.X
			}
			if pa.Y != pb.Y {
				return pa.Y < pb.Y
			}
			return cells[order[a]].id < cells[order[b]].id
		})
		improved := 0.0
		for oi := 0; oi < len(order); oi++ {
			i := order[oi]
			ci := c.Cells[cells[i].id]
			// Candidate partners: the next few cells in sweep order (their
			// positions neighbor ci's after sorting).
			for w := 1; w <= 6 && oi+w < len(order); w++ {
				j := order[oi+w]
				cj := c.Cells[cells[j].id]
				if ci.W != cj.W || ci.H != cj.H {
					continue // swap would break legality
				}
				nets := union(cells[i].nets, cells[j].nets)
				before := netsWL(nets)
				ci.Pos, cj.Pos = cj.Pos, ci.Pos
				after := netsWL(nets)
				if after < before-1e-9 {
					improved += before - after
				} else {
					ci.Pos, cj.Pos = cj.Pos, ci.Pos // revert
				}
			}
		}
		total += improved
		if improved < 1e-9 {
			break
		}
	}
	return total, nil
}

// refNetHPWL returns the half-perimeter wirelength of one net.
func refNetHPWL(c *netlist.Circuit, n *netlist.Net) float64 {
	if len(n.Pins) < 2 {
		return 0
	}
	pts := make([]geom.Point, 0, len(n.Pins))
	for _, id := range n.Pins {
		pts = append(pts, c.Cells[id].Pos)
	}
	return geom.HPWL(pts)
}

// detailedMatches runs Detailed and refDetailed on two clones of c and
// fails unless every position and the returned gain agree bit for bit. It
// returns Detailed's clone and its registry for further checks.
func detailedMatches(t *testing.T, label string, c *netlist.Circuit, passes int, exclude []int) (*netlist.Circuit, *obs.Registry) {
	t.Helper()
	want := c.Clone()
	wGain, err := refDetailed(want, passes, exclude)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	got := c.Clone()
	return got, detailedEquals(t, label, got, passes, exclude, want, wGain)
}

// detailedEquals runs Detailed on got and fails unless it returns wantGain
// and leaves every cell where want has it, compared with Float64bits.
func detailedEquals(t *testing.T, label string, got *netlist.Circuit, passes int, exclude []int, want *netlist.Circuit, wantGain float64) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	gain, err := Detailed(got, passes, exclude, reg, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if math.Float64bits(gain) != math.Float64bits(wantGain) {
		t.Fatalf("%s: gain %v, reference %v", label, gain, wantGain)
	}
	for id := range want.Cells {
		g, w := got.Cells[id].Pos, want.Cells[id].Pos
		if math.Float64bits(g.X) != math.Float64bits(w.X) || math.Float64bits(g.Y) != math.Float64bits(w.Y) {
			t.Fatalf("%s: cell %d at %v, reference %v", label, id, g, w)
		}
	}
	if tried, acc := reg.Counter("placer.detailed.tried"), reg.Counter("placer.detailed.accepted"); acc > tried {
		t.Fatalf("%s: %d swaps accepted of %d tried", label, acc, tried)
	}
	return reg
}

// legalCircuit generates a circuit and runs global placement and
// legalization on it, the input detailed placement gets in the flow.
func legalCircuit(t testing.TB, cells, ffs int, seed int64) *netlist.Circuit {
	t.Helper()
	c := detCircuit(t, cells, ffs, seed)
	if err := Global(c, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := Legalize(c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDetailedMatchesReference: the cached-box swap loop returns the former
// loop's gain and leaves every cell where it did, bit for bit, on generated
// circuits at 300, 2k and 5k cells for 1, 2, 3 and 10 passes, with and
// without the flip-flops pinned, and for the flow's sequence: a stage-1
// call, then a stage-6-style call with the flip-flops pinned.
//
// The reference arm chains one-pass calls. That is the reference's own
// multi-pass answer: each sweep's order is the one sort of the current
// positions, a pass that accepts no swap changes nothing (so every later
// pass finds nothing either), and 0 + g == g keeps the gain sum's bits. One
// chain then serves every pass count at the cost of the longest.
func TestDetailedMatchesReference(t *testing.T) {
	for _, sz := range []struct {
		cells, ffs int
		seed       int64
	}{{300, 40, 41}, {2000, 60, 42}, {5000, 50, 43}} {
		c := legalCircuit(t, sz.cells, sz.ffs, sz.seed)
		ffs := c.FlipFlops()
		for _, ex := range [][]int{nil, ffs} {
			t.Run(fmt.Sprintf("%d cells, %d pinned", sz.cells, len(ex)), func(t *testing.T) {
				t.Parallel()
				matchReferenceChain(t, c, ex, ffs)
			})
		}
	}
}

// matchReferenceChain holds Detailed to the chained reference on c for
// 1, 2, 3 and 10 passes with exclude pinned; with nothing pinned it also
// checks the flow's stage-1-then-stage-6 sequence, pinning ffs.
func matchReferenceChain(t *testing.T, c *netlist.Circuit, ex, ffs []int) {
	ref, gain, fixpoint := c.Clone(), 0.0, false
	for passes := 1; passes <= 10; passes++ {
		if !fixpoint {
			g, err := refDetailed(ref, 1, ex)
			if err != nil {
				t.Fatal(err)
			}
			gain += g
			fixpoint = g == 0
		}
		label := fmt.Sprintf("%d passes", passes)
		if passes <= 3 || passes == 10 {
			detailedEquals(t, label, c.Clone(), passes, ex, ref, gain)
		}
		if passes == 2 && ex == nil {
			// The flow's sequence from the stage-1 answer.
			label := "stage 1 then stage 6"
			want := ref.Clone()
			wGain, err := refDetailed(want, 1, ffs)
			if err != nil {
				t.Fatal(err)
			}
			got := c.Clone()
			if _, err := Detailed(got, 2, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			detailedEquals(t, label, got, 1, ffs, want, wGain)
		}
	}
}

// handCircuit places 4x4 gates at the given points on a 100x100 die.
func handCircuit(pts ...geom.Point) *netlist.Circuit {
	c := netlist.New("hand")
	c.Die = geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	for i, p := range pts {
		cell := c.AddCell(&netlist.Cell{Name: fmt.Sprintf("g%d", i), Kind: netlist.Gate, W: 4, H: 4})
		cell.Pos = p
	}
	return c
}

// addPad adds a fixed input pad at p and returns its ID.
func addPad(c *netlist.Circuit, p geom.Point) int {
	pad := c.AddCell(&netlist.Cell{Name: fmt.Sprintf("pad%d", len(c.Cells)), Kind: netlist.Input, Fixed: true})
	pad.Pos = p
	return pad.ID
}

// TestDetailedSelfLoopNet: a cell that pins one net twice (as G1 = DFF(G1)
// parses) lists the net twice, and the swap moves both pins.
func TestDetailedSelfLoopNet(t *testing.T) {
	c := handCircuit(geom.Pt(70, 50), geom.Pt(30, 50), geom.Pt(50, 50))
	p := addPad(c, geom.Pt(0, 50))
	q := addPad(c, geom.Pt(100, 50))
	c.AddNet("loop", 0, 0, p)
	c.AddNet("n1", 1, q)
	c.AddNet("n2", 2, 0, 1)
	got, _ := detailedMatches(t, "self loop", c, 3, nil)
	if got.Cells[0].Pos.X > got.Cells[1].Pos.X {
		t.Errorf("the self-loop cell did not move toward its pad: %v", got.Cells[0].Pos)
	}
}

// TestDetailedColocatedEdgePins: several pins share a box edge, so a swap
// that moves one of them off the edge leaves the edge in place.
func TestDetailedColocatedEdgePins(t *testing.T) {
	c := handCircuit(geom.Pt(10, 10), geom.Pt(10, 90), geom.Pt(90, 10), geom.Pt(90, 90), geom.Pt(50, 50))
	p := addPad(c, geom.Pt(10, 10))
	q := addPad(c, geom.Pt(90, 90))
	c.AddNet("corner", p, 0, 2, 4)
	c.AddNet("far", q, 1, 3)
	c.AddNet("mid", 4, 1)
	detailedMatches(t, "co-located", c, 3, nil)
}

// TestDetailedSolePinInward: the only pin on an edge moves inward, so the
// box cannot be updated in O(1) and the net is rescanned.
func TestDetailedSolePinInward(t *testing.T) {
	// Cell 0 alone spans the wide net's right edge; swapping it with cell 1
	// pulls that edge in, which shortens the wide net more than it
	// lengthens cell 1's.
	c := handCircuit(geom.Pt(90, 50), geom.Pt(40, 50))
	pads := []int{addPad(c, geom.Pt(10, 50)), addPad(c, geom.Pt(20, 50)), addPad(c, geom.Pt(30, 50))}
	c.AddNet("wide", append(pads, 0)...)
	c.AddNet("short", 1, addPad(c, geom.Pt(60, 50)))
	_, reg := detailedMatches(t, "sole pin inward", c, 2, nil)
	if reg.Counter("placer.detailed.accepted") == 0 {
		t.Fatal("the inward swap was not taken")
	}
	if reg.Counter("placer.detailed.rescans") == 0 {
		t.Error("moving an edge's sole pin inward did not rescan the net")
	}
}

// TestDetailedBoundRejects: a swap that empties an edge but whose lower
// bound already shows no gain is rejected without a rescan. Cell 0 alone
// spans the wide net's right edge at 90; swapping it to 40 leaves the edge
// at the pad at 60, which the bound pulls in to 40 (wide: 80 -> 50, bound
// 30), while cell 1's net grows from 40 to 90. The bounded after, 30 + 90,
// already equals before, 80 + 40.
func TestDetailedBoundRejects(t *testing.T) {
	c := handCircuit(geom.Pt(90, 50), geom.Pt(40, 50))
	pads := []int{addPad(c, geom.Pt(10, 50)), addPad(c, geom.Pt(20, 50)), addPad(c, geom.Pt(60, 50))}
	c.AddNet("wide", append(pads, 0)...)
	c.AddNet("short", 1, addPad(c, geom.Pt(0, 50)))
	_, reg := detailedMatches(t, "bound rejects", c, 2, nil)
	if got := reg.Counter("placer.detailed.pruned"); got < 1 {
		t.Errorf("pruned = %d, want >= 1", got)
	}
	if got := reg.Counter("placer.detailed.rescans"); got != 0 {
		t.Errorf("rescans = %d, want 0", got)
	}
}

// TestDetailedSharedNet: two cells on one shared net swap; that net's box
// is unchanged and only their private nets change the score.
func TestDetailedSharedNet(t *testing.T) {
	c := handCircuit(geom.Pt(60, 50), geom.Pt(40, 50))
	c.AddNet("shared", 0, 1, addPad(c, geom.Pt(50, 0)))
	c.AddNet("na", 0, addPad(c, geom.Pt(0, 50)))
	c.AddNet("nb", 1, addPad(c, geom.Pt(100, 50)))
	got, _ := detailedMatches(t, "shared net", c, 2, nil)
	if got.Cells[0].Pos.X != 40 || got.Cells[1].Pos.X != 60 {
		t.Errorf("cells not swapped: %v %v", got.Cells[0].Pos, got.Cells[1].Pos)
	}
	// The private nets shrink by 20 each; the shared net keeps its box.
	if d := c.SignalWL() - got.SignalWL(); d != 40 {
		t.Errorf("signal WL fell by %v, want 40", d)
	}
}

// TestDetailedNetBoxScan: the box scan's half-perimeter of co-located pins
// is 0, and 7 for pins at (0,0) and (3,4); its edge counts count the pins
// on each edge.
func TestDetailedNetBoxScan(t *testing.T) {
	c := handCircuit(geom.Pt(0, 0), geom.Pt(0, 0))
	if b := scanBox(c, []int{0, 1}); b.wl != 0 || b.nLoX != 2 || b.nHiY != 2 {
		t.Errorf("box of co-located pins = %+v", b)
	}
	c.Cells[1].Pos = geom.Pt(3, 4)
	if b := scanBox(c, []int{0, 1}); b.wl != 7 || b.nLoX != 1 || b.nHiX != 1 {
		t.Errorf("box = %+v, want half-perimeter 7", b)
	}
}

// TestDetailedNetBoxMoves: random cell moves on random nets (grid points,
// so pins often share an edge; duplicate pins included) keep every net's
// box, updated by move or rescanned when move refuses, equal to a full scan
// after every move. The swap loop's score of each move agrees with move:
// the same report, and move's wl bit for bit when move succeeds, a value
// no greater than the full scan's wl when it refuses.
func TestDetailedNetBoxMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	grid := func() geom.Point { return geom.Pt(float64(rng.Intn(6)), float64(rng.Intn(6))) }
	const cells = 30
	pts := make([]geom.Point, cells)
	for i := range pts {
		pts[i] = grid()
	}
	c := handCircuit(pts...)
	for n := 0; n < 40; n++ {
		pins := make([]int, 2+rng.Intn(6))
		for k := range pins {
			pins[k] = rng.Intn(cells)
		}
		c.AddNet(fmt.Sprintf("n%d", n), pins...)
	}
	boxes := make([]netBox, len(c.Nets))
	for i, n := range c.Nets {
		boxes[i] = scanBox(c, n.Pins)
	}
	rescans := 0
	for step := 0; step < 5000; step++ {
		id := rng.Intn(cells)
		from, to := c.Cells[id].Pos, grid()
		c.Cells[id].Pos = to
		for i, n := range c.Nets {
			k := 0
			for _, p := range n.Pins {
				if p == id {
					k++
				}
			}
			if k == 0 {
				continue
			}
			score, exact := boxes[i].score(int32(k), from, to)
			b, ok := boxes[i].move(int32(k), from, to)
			if exact != ok {
				t.Fatalf("step %d net %d: score exact %v, move %v", step, i, exact, ok)
			}
			if ok && math.Float64bits(score) != math.Float64bits(b.wl) {
				t.Fatalf("step %d net %d: score %v, move's wl %v", step, i, score, b.wl)
			}
			if !ok {
				b = scanBox(c, n.Pins)
				rescans++
				if score > b.wl {
					t.Fatalf("step %d net %d: bound %v above the scan's wl %v", step, i, score, b.wl)
				}
			}
			boxes[i] = b
		}
		for i, n := range c.Nets {
			want := scanBox(c, n.Pins)
			if boxes[i] != want {
				t.Fatalf("step %d net %d: box %+v, full scan %+v", step, i, boxes[i], want)
			}
			pp := make([]geom.Point, len(n.Pins))
			for k, p := range n.Pins {
				pp[k] = c.Cells[p].Pos
			}
			if math.Float64bits(want.wl) != math.Float64bits(geom.HPWL(pp)) {
				t.Fatalf("step %d net %d: wl %v, HPWL %v", step, i, want.wl, geom.HPWL(pp))
			}
		}
	}
	if rescans == 0 {
		t.Error("no move emptied an edge; the rescan path went untested")
	}
}
