package placer

import (
	"math"
	"math/rand"
	"testing"

	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
)

// maxOverlapRef is the all-pairs MaxOverlap the binned one replaced,
// verbatim.
func maxOverlapRef(c *netlist.Circuit) float64 {
	var cells []*netlist.Cell
	for _, cell := range c.Cells {
		if !cell.Fixed && cell.W > 0 {
			cells = append(cells, cell)
		}
	}
	worst := 0.0
	for i := 0; i < len(cells); i++ {
		for j := i + 1; j < len(cells); j++ {
			a, b := cells[i], cells[j]
			ox := math.Min(a.Pos.X+a.W/2, b.Pos.X+b.W/2) - math.Max(a.Pos.X-a.W/2, b.Pos.X-b.W/2)
			oy := math.Min(a.Pos.Y+a.H/2, b.Pos.Y+b.H/2) - math.Max(a.Pos.Y-a.H/2, b.Pos.Y-b.H/2)
			if ox > 1e-9 && oy > 1e-9 {
				worst = math.Max(worst, ox*oy)
			}
		}
	}
	return worst
}

// TestMaxOverlapMatchesReference: the binned MaxOverlap returns the
// all-pairs answer bit for bit on random overlapping placements (clustered
// and spread, mixed cell sizes, fixed and zero-width cells), on abutting
// row placements that are legal to the last bit or overlap by a hair around
// the 1e-9 threshold, on placed-and-legalized generated circuits, and on
// degenerate cells (infinite width, NaN position, negative height).
func TestMaxOverlapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(tag string, c *netlist.Circuit) {
		t.Helper()
		got, want := MaxOverlap(c), maxOverlapRef(c)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: MaxOverlap = %v, all-pairs reference %v", tag, got, want)
		}
	}
	for trial := 0; trial < 300; trial++ {
		c := netlist.New("ov")
		n := 1 + rng.Intn(400)
		spread := []float64{5, 50, 500}[rng.Intn(3)]
		for i := 0; i < n; i++ {
			cell := c.AddCell(&netlist.Cell{W: 0.5 + rng.Float64()*4, H: 1 + float64(rng.Intn(3))})
			cell.Pos = geom.Pt(rng.Float64()*spread, rng.Float64()*spread)
			switch rng.Intn(20) {
			case 0:
				cell.Fixed = true
			case 1:
				cell.W = 0
			}
		}
		check("random", c)
	}
	for trial := 0; trial < 100; trial++ {
		// Rows of abutting cells, some nudged so neighbors overlap by an
		// amount just below, at or above the 1e-9 threshold.
		c := netlist.New("rows")
		rows, h := 1+rng.Intn(30), 1.0+float64(rng.Intn(2))
		for r := 0; r < rows; r++ {
			x := 0.0
			for k := 1 + rng.Intn(40); k > 0; k-- {
				w := float64(1+rng.Intn(4)) * 0.5
				cell := c.AddCell(&netlist.Cell{W: w, H: h})
				cell.Pos = geom.Pt(x+w/2, float64(r)*h+h/2)
				if rng.Intn(6) == 0 {
					cell.Pos.X -= []float64{5e-10, 1e-9, 2e-9, 0.25}[rng.Intn(4)]
				}
				x += w
			}
		}
		check("rows", c)
	}
	for seed := int64(1); seed <= 4; seed++ {
		c, err := netlist.Generate(netlist.GenSpec{Name: "ovl", Cells: 300 * int(seed), FlipFlops: 30, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := Global(c, Options{}); err != nil {
			t.Fatal(err)
		}
		check("global", c)
		if err := Legalize(c); err != nil {
			t.Fatal(err)
		}
		check("legal", c)
	}
	c := netlist.New("odd")
	for _, spec := range []struct{ x, y, w, h float64 }{
		{0, 0, 2, 2}, {1, 1, 2, 2}, {3, 0, math.Inf(1), 1}, {0, 5, math.Inf(1), 3},
		{math.NaN(), 0, 2, 2}, {0, 0, 2, -1}, {0, 0, 2, math.NaN()}, {40, 40, 3, 3},
	} {
		cell := c.AddCell(&netlist.Cell{W: spec.w, H: spec.h})
		cell.Pos = geom.Pt(spec.x, spec.y)
	}
	check("degenerate", c)
}
