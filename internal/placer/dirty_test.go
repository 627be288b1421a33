package placer

import (
	"testing"
	"time"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/stop"
)

// twoClusters builds two connectivity-disjoint clusters, each a 3-pin star
// of movable gates plus a fixed pad pulling it, far apart on the die.
func twoClusters(t *testing.T) (*netlist.Circuit, []int, []int) {
	t.Helper()
	c := netlist.New("clusters")
	c.Die = geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(1000, 1000)}
	mk := func(x, y float64, fixed bool) int {
		kind := netlist.Gate
		if fixed {
			kind = netlist.Input
		}
		cell := c.AddCell(&netlist.Cell{Name: "c", Kind: kind, Pos: geom.Pt(x, y), Fixed: fixed})
		return cell.ID
	}
	a0 := mk(100, 100, true)
	a1 := mk(180, 120, false)
	a2 := mk(140, 190, false)
	c.AddNet("a", a0, a1, a2)
	b0 := mk(900, 900, true)
	b1 := mk(820, 880, false)
	b2 := mk(860, 810, false)
	c.AddNet("b", b0, b1, b2)
	return c, []int{a1, a2}, []int{b1, b2}
}

// TestSolveDirtyBatchMatchesSequential: disjoint dirty regions must solve to
// bit-identical positions whether passed as one batch or one at a time — the
// property the ECO batch==sequential oracle leans on.
func TestSolveDirtyBatchMatchesSequential(t *testing.T) {
	cb, aCells, bCells := twoClusters(t)
	sysB, err := NewSystem(cb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sysB.SolveDirty(append(append([]int{}, aCells...), bCells...), nil, nil); err != nil {
		t.Fatal(err)
	}

	cs, aCells2, bCells2 := twoClusters(t)
	sysS, err := NewSystem(cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sysS.SolveDirty(aCells2, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sysS.SolveDirty(bCells2, nil, nil); err != nil {
		t.Fatal(err)
	}
	samePositions(t, "batch vs sequential", cb.Positions(), cs.Positions())
}

// TestSolveDirtyPullsTowardConnectivity: a dirty cell moves toward its net
// neighbors but, anchored at its old position, does not teleport onto them;
// clean cells do not move at all.
func TestSolveDirtyPullsTowardConnectivity(t *testing.T) {
	c, aCells, bCells := twoClusters(t)
	reg := obs.NewRegistry()
	sys, err := NewSystem(c, reg)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Positions()
	moved, err := sys.SolveDirty(aCells[:1], nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Fatalf("moved = %d, want 1", moved)
	}
	id := aCells[0]
	if c.Cells[id].Pos == before[id] {
		t.Fatal("dirty cell did not move")
	}
	// Everything else stays put — including the other dirty-capable cells.
	for _, cell := range c.Cells {
		if cell.ID == id {
			continue
		}
		if cell.Pos != before[cell.ID] {
			t.Fatalf("clean cell %d moved from %v to %v", cell.ID, before[cell.ID], cell.Pos)
		}
	}
	_ = bCells
	if got := reg.Snapshot().Counter("placer.dirty.solves"); got != 1 {
		t.Errorf("placer.dirty.solves = %d, want 1", got)
	}
	if got := reg.Snapshot().Counter("placer.dirty.components"); got != 1 {
		t.Errorf("placer.dirty.components = %d, want 1", got)
	}
	// Dirty cell + its star node.
	if got := reg.Snapshot().Counter("placer.dirty.cells"); got != 2 {
		t.Errorf("placer.dirty.cells = %d, want 2", got)
	}
}

// TestSolveDirtyCGCounters: the dirty-region CG reports its work
// deterministically (two identical solves record equal counters), and on
// this well-conditioned instance no axis solve runs out of iterations.
func TestSolveDirtyCGCounters(t *testing.T) {
	run := func() (iters, stagnated int64) {
		c, aCells, bCells := twoClusters(t)
		reg := obs.NewRegistry()
		sys, err := NewSystem(c, reg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.SolveDirty(append(aCells, bCells...), nil, reg); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot().Counter("placer.dirty.cg.iters"), reg.Snapshot().Counter("placer.dirty.cg.stagnated")
	}
	i1, s1 := run()
	i2, s2 := run()
	if i1 != i2 || s1 != s2 {
		t.Fatalf("identical solves: iters %d vs %d, stagnated %d vs %d", i1, i2, s1, s2)
	}
	if i1 <= 0 {
		t.Errorf("placer.dirty.cg.iters = %d, want > 0", i1)
	}
	if s1 != 0 {
		t.Errorf("placer.dirty.cg.stagnated = %d, want 0", s1)
	}
}

// TestCGKernelReportsStagnation: a system too ill-conditioned to converge
// within cgMaxIter reports every iteration and no convergence; a trivial
// one converges at once. The ill-conditioned case is a 2000-node path
// Laplacian held by a 1e-8 anchor at one end: not diagonal, so the Jacobi
// preconditioner cannot solve it in one step, and CG needs about one
// iteration per hop to carry the anchor's information down the path.
func TestCGKernelReportsStagnation(t *testing.T) {
	const n = 2000
	path := spd{diag: make([]float64, n), rowStart: make([]int32, n+1)}
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		for _, j := range []int{i - 1, i + 1} {
			if j >= 0 && j < n {
				path.cols = append(path.cols, int32(j))
				path.w = append(path.w, 1)
				path.diag[i]++
			}
		}
		path.rowStart[i+1] = int32(len(path.cols))
		b[i] = 1
	}
	path.diag[0] += 1e-8
	var ws cgScratch
	res, err := ws.solve1(path, make([]float64, n), b, 1e-6, cgMaxIter, nil)
	if err != nil || res.converged || res.stopped || res.iters != cgMaxIter {
		t.Errorf("ill-conditioned: %+v err=%v, want %d iterations, unconverged", res, err, cgMaxIter)
	}
	ident := spd{diag: make([]float64, n), rowStart: make([]int32, n+1)}
	for i := range ident.diag {
		ident.diag[i] = 1
	}
	res, err = ws.solve1(ident, make([]float64, n), b, 1e-6, cgMaxIter, nil)
	if err != nil || !res.converged || res.iters != 1 {
		t.Errorf("identity: %+v err=%v, want 1 iteration, converged", res, err)
	}
}

// TestSolveDirtyEmptyAndUnknown: no dirty cells (or only fixed/unknown IDs)
// is a no-op, not an error.
func TestSolveDirtyEmptyAndUnknown(t *testing.T) {
	c, _, _ := twoClusters(t)
	sys, err := NewSystem(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Positions()
	moved, err := sys.SolveDirty(nil, nil, nil)
	if err != nil || moved != 0 {
		t.Fatalf("empty dirty set: moved=%d err=%v", moved, err)
	}
	moved, err = sys.SolveDirty([]int{0, 9999}, nil, nil) // fixed pad + unknown ID
	if err != nil || moved != 0 {
		t.Fatalf("fixed/unknown dirty set: moved=%d err=%v", moved, err)
	}
	samePositions(t, "no-op dirty solve", c.Positions(), before)
}

// TestSolveDirtyStops: an expired token aborts before any component solves.
func TestSolveDirtyStops(t *testing.T) {
	c, aCells, _ := twoClusters(t)
	sys, err := NewSystem(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	tok, cancel := stop.WithTimeout(-time.Second)
	defer cancel()
	if _, err := sys.SolveDirty(aCells, tok, nil); !stop.IsStop(err) {
		t.Fatalf("err = %v, want a stop error", err)
	}
}

// TestSolveDirtyCGCancel: the stop token reaches the CG iterations inside a
// component, not only the checks between components. With the per-iteration
// cancel site armed, the one-component solve returns a stop error and
// leaves the component's cells where they were.
func TestSolveDirtyCGCancel(t *testing.T) {
	c, aCells, _ := twoClusters(t)
	sys, err := NewSystem(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Positions()
	defer faultinject.Enable(faultinject.Rule{
		Site: faultinject.SitePlacerCGCancel, Call: 1, Err: stop.ErrCanceled,
	})()
	if _, err := sys.SolveDirty(aCells, nil, nil); !stop.IsStop(err) {
		t.Fatalf("err = %v, want a stop error", err)
	}
	samePositions(t, "canceled dirty solve", c.Positions(), before)
}
