package placer

import (
	"math"
	"testing"
	"time"

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
	if _, err := sysB.SolveDirty(append(append([]int{}, aCells...), bCells...), nil); err != nil {
		t.Fatal(err)
	}

	cs, aCells2, bCells2 := twoClusters(t)
	sysS, err := NewSystem(cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sysS.SolveDirty(aCells2, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sysS.SolveDirty(bCells2, nil); err != nil {
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
	moved, err := sys.SolveDirty(aCells[:1], nil)
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
	if got := reg.Counter("placer.dirty.solves"); got != 1 {
		t.Errorf("placer.dirty.solves = %d, want 1", got)
	}
	if got := reg.Counter("placer.dirty.components"); got != 1 {
		t.Errorf("placer.dirty.components = %d, want 1", got)
	}
	// Dirty cell + its star node.
	if got := reg.Counter("placer.dirty.cells"); got != 2 {
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
		if _, err := sys.SolveDirty(append(aCells, bCells...), nil); err != nil {
			t.Fatal(err)
		}
		return reg.Counter("placer.dirty.cg.iters"), reg.Counter("placer.dirty.cg.stagnated")
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

// TestCGSerialReportsStagnation: a system too ill-conditioned to converge
// within cgMaxIter reports every iteration and no convergence; a trivial
// one converges at once.
func TestCGSerialReportsStagnation(t *testing.T) {
	const n = 2000
	d := make([]float64, n)
	b := make([]float64, n)
	for i := range d {
		d[i] = math.Pow(10, 8*float64(i)/float64(n-1)) // condition number 1e8
		b[i] = 1
	}
	diag := func(v, out []float64) {
		for i := range v {
			out[i] = d[i] * v[i]
		}
	}
	if iters, converged := cgSerial(diag, make([]float64, n), b); converged || iters != cgMaxIter {
		t.Errorf("ill-conditioned: iters=%d converged=%v, want %d/false", iters, converged, cgMaxIter)
	}
	ident := func(v, out []float64) { copy(out, v) }
	if iters, converged := cgSerial(ident, make([]float64, n), b); !converged || iters != 1 {
		t.Errorf("identity: iters=%d converged=%v, want 1/true", iters, converged)
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
	moved, err := sys.SolveDirty(nil, nil)
	if err != nil || moved != 0 {
		t.Fatalf("empty dirty set: moved=%d err=%v", moved, err)
	}
	moved, err = sys.SolveDirty([]int{0, 9999}, nil) // fixed pad + unknown ID
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
	if _, err := sys.SolveDirty(aCells, tok); !stop.IsStop(err) {
		t.Fatalf("err = %v, want a stop error", err)
	}
}
