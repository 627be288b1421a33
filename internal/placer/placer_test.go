package placer

import (
	"math"
	"slices"
	"testing"

	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
)

func genCircuit(t *testing.T, cells, ffs int, seed int64) *netlist.Circuit {
	t.Helper()
	c, err := netlist.Generate(netlist.GenSpec{Name: "p", Cells: cells, FlipFlops: ffs, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// incremental is one stage-6 placement of c on a freshly built System.
func incremental(c *netlist.Circuit, opt Options) error {
	sys, err := NewSystem(c, opt.Obs)
	if err != nil {
		return err
	}
	return sys.Incremental(opt)
}

func TestGlobalReducesWirelength(t *testing.T) {
	c := genCircuit(t, 600, 80, 1)
	before := c.SignalWL()
	if err := Global(c, Options{}); err != nil {
		t.Fatal(err)
	}
	after := c.SignalWL()
	if after >= before*0.8 {
		t.Errorf("global placement barely improved WL: %v -> %v", before, after)
	}
	// All cells inside the die.
	for _, cell := range c.Cells {
		if !c.Die.Contains(cell.Pos) {
			t.Fatalf("cell %q at %v outside die", cell.Name, cell.Pos)
		}
	}
}

func TestGlobalSpreadsCells(t *testing.T) {
	c := genCircuit(t, 600, 80, 2)
	if err := Global(c, Options{}); err != nil {
		t.Fatal(err)
	}
	// Without spreading the QP solution collapses to a blob: the worst-bin
	// utilization on a 6x6 overlay must stay moderate. The generator sizes
	// cells for ~70% utilization, so uniform spreading gives ~0.7/bin.
	if d := worstBinDensity(c, 6); d > 3.0 {
		t.Errorf("worst bin density %v: placement still clumped", d)
	}
}

// worstBinDensity reports the utilization of the worst bin of a grid x grid
// overlay of the die, counting movable cells at the bin of their position.
func worstBinDensity(c *netlist.Circuit, grid int) float64 {
	bins := make([]float64, grid*grid)
	bw, bh := c.Die.W()/float64(grid), c.Die.H()/float64(grid)
	for _, cell := range c.Cells {
		if cell.Fixed {
			continue
		}
		ix := min(max(int((cell.Pos.X-c.Die.Lo.X)/bw), 0), grid-1)
		iy := min(max(int((cell.Pos.Y-c.Die.Lo.Y)/bh), 0), grid-1)
		bins[iy*grid+ix] += cell.W * cell.H
	}
	return slices.Max(bins) / (bw * bh)
}

func TestGlobalDeterministic(t *testing.T) {
	c1 := genCircuit(t, 300, 40, 3)
	c2 := genCircuit(t, 300, 40, 3)
	if err := Global(c1, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := Global(c2, Options{}); err != nil {
		t.Fatal(err)
	}
	for i := range c1.Cells {
		if c1.Cells[i].Pos != c2.Cells[i].Pos {
			t.Fatalf("cell %d position differs between identical runs", i)
		}
	}
}

func TestGlobalEmptyDie(t *testing.T) {
	c := netlist.New("empty")
	c.AddCell(&netlist.Cell{Name: "a"})
	if err := Global(c, Options{}); err == nil {
		t.Fatal("expected error for empty die")
	}
}

func TestGlobalNoMovableCells(t *testing.T) {
	c := netlist.New("fixedonly")
	c.Die = geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	c.AddCell(&netlist.Cell{Name: "pad", Kind: netlist.Input, Fixed: true})
	if err := Global(c, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestPseudoNetPullsCell(t *testing.T) {
	c := genCircuit(t, 300, 40, 4)
	if err := Global(c, Options{}); err != nil {
		t.Fatal(err)
	}
	ff := c.FlipFlops()[0]
	target := geom.Pt(c.Die.Hi.X*0.9, c.Die.Hi.Y*0.9)
	before := c.Cells[ff].Pos.Manhattan(target)
	err := incremental(c, Options{
		PseudoNets: []PseudoNet{{Cell: ff, Target: target, Weight: 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	after := c.Cells[ff].Pos.Manhattan(target)
	if after >= before*0.5 {
		t.Errorf("pseudo-net did not pull flip-flop: %v -> %v", before, after)
	}
}

func TestIncrementalStability(t *testing.T) {
	// With no pseudo-nets, incremental placement must barely move cells
	// (the paper requires a stable placer for stage 6).
	c := genCircuit(t, 400, 50, 5)
	if err := Global(c, Options{}); err != nil {
		t.Fatal(err)
	}
	before := c.Positions()
	if err := incremental(c, Options{}); err != nil {
		t.Fatal(err)
	}
	moved, worst := 0.0, 0.0
	n := 0
	for i, cell := range c.Cells {
		if cell.Fixed {
			continue
		}
		d := cell.Pos.Manhattan(before[i])
		moved += d
		worst = math.Max(worst, d)
		n++
	}
	avg := moved / float64(n)
	if avg > c.Die.W()*0.05 {
		t.Errorf("incremental placement moved cells by %v on average (die %v)", avg, c.Die.W())
	}
}

func TestIncrementalKeepsWirelengthReasonable(t *testing.T) {
	c := genCircuit(t, 400, 50, 6)
	if err := Global(c, Options{}); err != nil {
		t.Fatal(err)
	}
	base := c.SignalWL()
	// Pull all flip-flops to the die center.
	var pn []PseudoNet
	for _, ff := range c.FlipFlops() {
		pn = append(pn, PseudoNet{Cell: ff, Target: c.Die.Center(), Weight: 2})
	}
	if err := incremental(c, Options{PseudoNets: pn}); err != nil {
		t.Fatal(err)
	}
	after := c.SignalWL()
	if after > base*1.6 {
		t.Errorf("incremental placement degraded WL too much: %v -> %v", base, after)
	}
}

func TestLegalizeRemovesOverlap(t *testing.T) {
	c := genCircuit(t, 500, 60, 7)
	if err := Global(c, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := Legalize(c); err != nil {
		t.Fatal(err)
	}
	if ov := MaxOverlap(c); ov > 1e-9 {
		t.Errorf("max overlap after legalization: %v", ov)
	}
	for _, cell := range c.Cells {
		if cell.Fixed {
			continue
		}
		if cell.Pos.X-cell.W/2 < c.Die.Lo.X-1e-9 || cell.Pos.X+cell.W/2 > c.Die.Hi.X+1e-9 {
			t.Fatalf("cell %q sticks out of the die in x", cell.Name)
		}
	}
}

func TestLegalizePreservesLocality(t *testing.T) {
	c := genCircuit(t, 500, 60, 8)
	if err := Global(c, Options{}); err != nil {
		t.Fatal(err)
	}
	before := c.Positions()
	wlBefore := c.SignalWL()
	if err := Legalize(c); err != nil {
		t.Fatal(err)
	}
	total := 0.0
	n := 0
	for i, cell := range c.Cells {
		if cell.Fixed {
			continue
		}
		total += cell.Pos.Manhattan(before[i])
		n++
	}
	if avg := total / float64(n); avg > c.Die.W()*0.1 {
		t.Errorf("legalization displaced cells by %v on average", avg)
	}
	if wlAfter := c.SignalWL(); wlAfter > wlBefore*1.5 {
		t.Errorf("legalization degraded WL: %v -> %v", wlBefore, wlAfter)
	}
}

func TestLegalizeErrors(t *testing.T) {
	c := netlist.New("nofootprint")
	c.Die = geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	c.AddCell(&netlist.Cell{Name: "a"})
	if err := Legalize(c); err == nil {
		t.Fatal("expected error for zero-size cells")
	}
	// Cell area beyond the die.
	c2 := netlist.New("toofat")
	c2.Die = geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	c2.AddCell(&netlist.Cell{Name: "a", W: 20, H: 20})
	if err := Legalize(c2); err == nil {
		t.Fatal("expected error for oversized cells")
	}
}

func TestDensityAndOverlapHelpers(t *testing.T) {
	c := netlist.New("two")
	c.Die = geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	a := c.AddCell(&netlist.Cell{Name: "a", W: 2, H: 2})
	b := c.AddCell(&netlist.Cell{Name: "b", W: 2, H: 2})
	a.Pos = geom.Pt(5, 5)
	b.Pos = geom.Pt(6, 5) // 1x2 overlap
	if ov := MaxOverlap(c); math.Abs(ov-2) > 1e-9 {
		t.Errorf("MaxOverlap = %v, want 2", ov)
	}
	b.Pos = geom.Pt(9, 9)
	if ov := MaxOverlap(c); ov != 0 {
		t.Errorf("MaxOverlap = %v, want 0", ov)
	}
}

// TestQuickLegalizeAlwaysLegal: across random circuits and utilizations,
// Global+Legalize must always produce an overlap-free in-die placement.
func TestQuickLegalizeAlwaysLegal(t *testing.T) {
	for seed := int64(200); seed < 206; seed++ {
		cells := 120 + int(seed%3)*180
		c, err := netlist.Generate(netlist.GenSpec{
			Name: "ql", Cells: cells, FlipFlops: cells / 10, Seed: seed,
			Util: 0.5 + float64(seed%4)*0.08,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := Global(c, Options{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := Legalize(c); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ov := MaxOverlap(c); ov > 1e-9 {
			t.Fatalf("seed %d: overlap %v", seed, ov)
		}
		for _, cell := range c.Cells {
			if !cell.Fixed && !c.Die.Contains(cell.Pos) {
				t.Fatalf("seed %d: cell %q outside die", seed, cell.Name)
			}
		}
	}
}
