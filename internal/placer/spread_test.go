package placer

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
)

// The equalize/shiftAxis edge cases below are deterministic hand-computed
// fixtures: the build-once reuse refactor must reproduce these paths
// bit-for-bit, so the expected values are locked to 1e-12.

// targetOf returns the equalization target of the given cell.
func targetOf(t *testing.T, pns []PseudoNet, cell int) geom.Point {
	t.Helper()
	for _, pn := range pns {
		if pn.Cell == cell {
			return pn.Target
		}
	}
	t.Fatalf("no equalization target for cell %d", cell)
	return geom.Point{}
}

func approx(t *testing.T, label string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("%s = %v, want %v", label, got, want)
	}
}

// TestEqualizeDieBoundaryCells: cells exactly on the die corners exercise
// the stripe/bin index clamps (raw index == bins) and the frac == 1 mapping
// onto the last bin boundary. On a 10x10 die with 2x2 bins and margin 0.1,
// the corner cell maps to newBound[2] = 9.9 blended 0.8/0.2 with its old
// position, and the origin cell to newBound[0] = 0.1.
func TestEqualizeDieBoundaryCells(t *testing.T) {
	c := netlist.New("boundary")
	c.Die = geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	lo := c.AddCell(&netlist.Cell{Name: "lo", W: 2, H: 2})
	hi := c.AddCell(&netlist.Cell{Name: "hi", W: 2, H: 2})
	lo.Pos = geom.Pt(0, 0)
	hi.Pos = geom.Pt(10, 10)

	pns := equalize(c, 2, new(spreadWS))
	if len(pns) != 2 {
		t.Fatalf("equalize returned %d targets, want 2", len(pns))
	}
	tLo := targetOf(t, pns, lo.ID)
	approx(t, "lo.X", tLo.X, 0.8*0.1+0.2*0)
	approx(t, "lo.Y", tLo.Y, 0.8*0.1+0.2*0)
	tHi := targetOf(t, pns, hi.ID)
	approx(t, "hi.X", tHi.X, 0.8*9.9+0.2*10)
	approx(t, "hi.Y", tHi.Y, 0.8*9.9+0.2*10)
}

// TestEqualizeZeroUtilizationStripe: a stripe whose cells carry zero total
// area has no utilization map; its cells must keep their positions exactly
// (the NaN-sentinel fallback), with no NaN leaking into the targets.
func TestEqualizeZeroUtilizationStripe(t *testing.T) {
	c := netlist.New("zeroutil")
	c.Die = geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	a := c.AddCell(&netlist.Cell{Name: "a"}) // zero footprint
	b := c.AddCell(&netlist.Cell{Name: "b"})
	a.Pos = geom.Pt(3.25, 1.5)
	b.Pos = geom.Pt(8, 2.5)

	pns := equalize(c, 2, new(spreadWS))
	for _, pn := range pns {
		if math.IsNaN(pn.Target.X) || math.IsNaN(pn.Target.Y) {
			t.Fatalf("cell %d target %v contains NaN", pn.Cell, pn.Target)
		}
	}
	if got := targetOf(t, pns, a.ID); got != a.Pos {
		t.Errorf("zero-utilization stripe moved cell a: %v -> %v", a.Pos, got)
	}
	if got := targetOf(t, pns, b.ID); got != b.Pos {
		t.Errorf("zero-utilization stripe moved cell b: %v -> %v", b.Pos, got)
	}
}

// TestEqualizeZeroAreaCellInUtilizedStripe: a zero-area cell sharing a
// stripe with a real cell contributes no utilization but is still remapped
// through the stripe's cumulative map. With the 4-area cell filling bin 0,
// the zero-area cell at the center of bin 1 maps onto the flat tail of the
// map (newBound[1] = newBound[2] = 9.9) in x; in y it sits alone in a
// zero-utilization vertical stripe and keeps its coordinate.
func TestEqualizeZeroAreaCellInUtilizedStripe(t *testing.T) {
	c := netlist.New("zeroarea")
	c.Die = geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	a := c.AddCell(&netlist.Cell{Name: "a", W: 2, H: 2})
	z := c.AddCell(&netlist.Cell{Name: "z"}) // zero area
	a.Pos = geom.Pt(2.5, 2.5)
	z.Pos = geom.Pt(7.5, 2.5)

	pns := equalize(c, 2, new(spreadWS))
	tA := targetOf(t, pns, a.ID)
	// a: bin 0, frac 0.5 -> mapped 0.1 + 0.5*(9.9-0.1) = 5.0, both axes.
	approx(t, "a.X", tA.X, 0.8*5.0+0.2*2.5)
	approx(t, "a.Y", tA.Y, 0.8*5.0+0.2*2.5)
	tZ := targetOf(t, pns, z.ID)
	approx(t, "z.X", tZ.X, 0.8*9.9+0.2*7.5)
	approx(t, "z.Y", tZ.Y, 2.5)
}

// TestEqualizeNoMovableCells: nothing to equalize yields no targets.
func TestEqualizeNoMovableCells(t *testing.T) {
	c := netlist.New("fixedonly")
	c.Die = geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	c.AddCell(&netlist.Cell{Name: "pad", Fixed: true, W: 1, H: 1})
	if pns := equalize(c, 2, new(spreadWS)); pns != nil {
		t.Fatalf("equalize on fixed-only circuit returned %v", pns)
	}
}

// TestEqualizeMatchesReference: the workspace pass gives the targets of
// the verbatim former pass, in the same order and bit for bit, on
// generated circuits of several sizes with cells scattered past the die
// edges and areas spread over many magnitudes, some zero, at several grid sizes, with one workspace
// reused across every call so its buffers grow and shrink; and
// Incremental's filter of them.
func TestEqualizeMatchesReference(t *testing.T) {
	ws := new(spreadWS)
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{900, 150, 2400, 40} {
		c := detCircuit(t, size, size/10, int64(size))
		die := c.Die
		for _, cell := range c.Cells {
			// Areas of many magnitudes make every utilization sum depend
			// on the order it adds the stripe's cells in.
			cell.W *= math.Exp(8 * (rng.Float64() - 0.5))
			if rng.Intn(10) == 0 {
				cell.W = 0
			}
			cell.Pos = geom.Pt(die.Lo.X-0.05*die.W()+1.1*die.W()*rng.Float64(),
				die.Lo.Y-0.05*die.H()+1.1*die.H()*rng.Float64())
		}
		for _, bins := range []int{4, 9, 31} {
			want := refEqualize(c, bins)
			got := equalize(c, bins, ws)
			if len(got) != len(want) {
				t.Fatalf("%d cells, %d bins: %d targets, reference %d", size, bins, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.Cell != w.Cell || g.Weight != w.Weight ||
					math.Float64bits(g.Target.X) != math.Float64bits(w.Target.X) ||
					math.Float64bits(g.Target.Y) != math.Float64bits(w.Target.Y) {
					t.Fatalf("%d cells, %d bins: target %d = %+v, reference %+v", size, bins, i, g, w)
				}
			}
		}
	}
	// Incremental's filter: the targets of the pulled cells, in cell order,
	// with pseudo-net cells outside the circuit ignored, and every mark
	// cleared afterwards.
	c := detCircuit(t, 300, 60, 5)
	ffs := c.FlipFlops()
	for round, pns := range [][]PseudoNet{
		{{Cell: ffs[3]}, {Cell: -1}, {Cell: len(c.Cells) + 5}, {Cell: ffs[0]}},
		{{Cell: ffs[1]}, {Cell: ffs[2]}},
	} {
		pulled := map[int]bool{}
		for _, pn := range pns {
			pulled[pn.Cell] = true
		}
		var want []PseudoNet
		for _, tg := range refEqualize(c, 6) {
			if pulled[tg.Cell] {
				want = append(want, tg)
			}
		}
		got := ws.pulledTargets(c, 6, pns)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: pulled targets %+v, reference %+v", round, got, want)
		}
		for id, on := range ws.pulled {
			if on {
				t.Fatalf("round %d: pulled mark of cell %d left set", round, id)
			}
		}
	}
}
