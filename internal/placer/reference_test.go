package placer

import (
	"errors"
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
		if i, ok := s.idx[id]; ok {
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
