package netlist

import (
	"strings"
	"testing"

	"rotaryclk/internal/geom"
)

// tiny builds a 2-FF, 2-gate circuit by hand:
//
//	pi0 -> g0 -> ff0 -> g1 -> ff1 -> po0
func tiny(t *testing.T) *Circuit {
	t.Helper()
	c := New("tiny")
	c.Die = geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	pi := c.AddCell(&Cell{Name: "pi0", Kind: Input, Fixed: true})
	g0 := c.AddCell(&Cell{Name: "g0", Kind: Gate, Fn: FuncNot})
	f0 := c.AddCell(&Cell{Name: "ff0", Kind: FF, Fn: FuncDFF})
	g1 := c.AddCell(&Cell{Name: "g1", Kind: Gate, Fn: FuncBuf})
	f1 := c.AddCell(&Cell{Name: "ff1", Kind: FF, Fn: FuncDFF})
	po := c.AddCell(&Cell{Name: "po0", Kind: Output, Fixed: true})
	c.AddNet("pi0_n", pi.ID, g0.ID)
	c.AddNet("g0_n", g0.ID, f0.ID)
	c.AddNet("ff0_n", f0.ID, g1.ID)
	c.AddNet("g1_n", g1.ID, f1.ID)
	c.AddNet("ff1_n", f1.ID, po.ID)
	return c
}

func TestTinyStructure(t *testing.T) {
	c := tiny(t)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	ffs := c.FlipFlops()
	if len(ffs) != 2 {
		t.Fatalf("FlipFlops = %v", ffs)
	}
	st := c.Stats()
	if st.Cells != 4 || st.FlipFlops != 2 || st.Nets != 5 || st.Inputs != 1 || st.Outputs != 1 {
		t.Errorf("Stats = %+v", st)
	}
	if c.CountKind(Gate) != 2 {
		t.Errorf("CountKind(Gate) = %d", c.CountKind(Gate))
	}
	if c.NumMovable() != 4 {
		t.Errorf("NumMovable = %d", c.NumMovable())
	}
}

func TestNetDriverSinks(t *testing.T) {
	c := tiny(t)
	n := c.Nets[1] // g0 -> ff0
	if n.Driver() != 1 {
		t.Errorf("Driver = %d", n.Driver())
	}
	if s := n.Sinks(); len(s) != 1 || s[0] != 2 {
		t.Errorf("Sinks = %v", s)
	}
	empty := &Net{}
	if empty.Driver() != -1 || empty.Sinks() != nil {
		t.Error("empty net driver/sinks wrong")
	}
}

func TestSignalWL(t *testing.T) {
	c := tiny(t)
	c.Cells[1].Pos = geom.Pt(0, 0)  // g0
	c.Cells[2].Pos = geom.Pt(3, 4)  // ff0
	c.Cells[3].Pos = geom.Pt(3, 4)  // g1
	c.Cells[4].Pos = geom.Pt(3, 4)  // ff1
	c.Cells[0].Pos = geom.Pt(0, 0)  // pi0
	c.Cells[5].Pos = geom.Pt(10, 4) // po0
	// nets: pi0-g0 (0), g0-ff0 (7), ff0-g1 (0), g1-ff1 (0), ff1-po0 (7)
	if wl := c.SignalWL(); wl != 14 {
		t.Errorf("SignalWL = %v, want 14", wl)
	}
}

func TestPositionsRoundTrip(t *testing.T) {
	c := tiny(t)
	pos := c.Positions()
	pos[1] = geom.Pt(42, 42)
	pos[0] = geom.Pt(99, 99) // fixed pad: must not move
	if err := c.SetPositions(pos); err != nil {
		t.Fatal(err)
	}
	if c.Cells[1].Pos != geom.Pt(42, 42) {
		t.Error("movable cell did not move")
	}
	if c.Cells[0].Pos == geom.Pt(99, 99) {
		t.Error("fixed pad moved")
	}
}

func TestValidateCatchesBrokenNets(t *testing.T) {
	c := tiny(t)
	c.Nets[0].Pins = nil
	if err := c.Validate(); err == nil {
		t.Error("expected error for pinless net")
	}
	c = tiny(t)
	c.Cells[2].Fanin = append(c.Cells[2].Fanin, 4) // FF with 2 fanins
	if err := c.Validate(); err == nil {
		t.Error("expected error for FF with 2 fanins")
	}
}

const benchSrc = `
# simple sequential circuit
INPUT(a)
INPUT(b)
OUTPUT(y)
s = DFF(d)
d = NAND(a, s)
y = OR(d, b)
`

func TestParseBench(t *testing.T) {
	c, err := ParseBench("simple", strings.NewReader(benchSrc))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	st := c.Stats()
	if st.Inputs != 2 || st.Outputs != 1 || st.FlipFlops != 1 || st.Cells != 3 {
		t.Errorf("Stats = %+v", st)
	}
	s := cellByName(c, "s")
	if s == nil || s.Kind != FF {
		t.Fatalf("cell s = %+v", s)
	}
	d := cellByName(c, "d")
	if d == nil || d.Fn != FuncNand || len(d.Fanin) != 2 {
		t.Fatalf("cell d = %+v", d)
	}
}

// cellByName returns the cell of c with the given name, or nil.
func cellByName(c *Circuit, name string) *Cell {
	for _, cell := range c.Cells {
		if cell.Name == name {
			return cell
		}
	}
	return nil
}

func TestParseBenchErrors(t *testing.T) {
	cases := []string{
		"G1 = NAND(G0)",            // G0 never produced
		"INPUT(a)\na = DFF(a)",     // duplicate definition
		"INPUT(a)\nx = DFF(a, a)",  // DFF with 2 inputs
		"INPUT(a)\nx = FROB(a)",    // unknown function
		"INPUT(a)\njunk line here", // no '='
		"INPUT()",                  // empty decl
	}
	for _, src := range cases {
		if _, err := ParseBench("bad", strings.NewReader(src)); err == nil {
			t.Errorf("ParseBench(%q): expected error", src)
		}
	}
}

func TestBenchRoundTrip(t *testing.T) {
	c1, err := ParseBench("simple", strings.NewReader(benchSrc))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteBench(&buf, c1); err != nil {
		t.Fatal(err)
	}
	c2, err := ParseBench("simple2", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if c1.Stats() != c2.Stats() {
		t.Errorf("round trip stats differ: %+v vs %+v", c1.Stats(), c2.Stats())
	}
}

func TestGenerateMatchesSpec(t *testing.T) {
	spec := GenSpec{Name: "t1", Cells: 500, FlipFlops: 60, Seed: 7}
	c, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	st := c.Stats()
	if st.Cells != 500 || st.FlipFlops != 60 {
		t.Errorf("Stats = %+v", st)
	}
	if st.Nets < 450 || st.Nets > 600 {
		t.Errorf("net count %d far from cell count", st.Nets)
	}
	// Every net must have at least one sink.
	for _, n := range c.Nets {
		if len(n.Pins) < 2 {
			t.Fatalf("net %q has no sinks", n.Name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := GenSpec{Name: "t2", Cells: 300, FlipFlops: 40, Seed: 11}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Nets) != len(b.Nets) {
		t.Fatalf("net counts differ: %d vs %d", len(a.Nets), len(b.Nets))
	}
	for i := range a.Nets {
		if len(a.Nets[i].Pins) != len(b.Nets[i].Pins) {
			t.Fatalf("net %d pin counts differ", i)
		}
		for j := range a.Nets[i].Pins {
			if a.Nets[i].Pins[j] != b.Nets[i].Pins[j] {
				t.Fatalf("net %d pin %d differs", i, j)
			}
		}
	}
	for i := range a.Cells {
		if a.Cells[i].Pos != b.Cells[i].Pos {
			t.Fatalf("cell %d position differs", i)
		}
	}
}

func TestGenerateAcyclicCombinational(t *testing.T) {
	c, err := Generate(GenSpec{Name: "t3", Cells: 400, FlipFlops: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Combinational edges must go from lower cell ID to higher cell ID for
	// gates (the generator's topological invariant): gate fanins come from
	// pads, FFs, or earlier gates.
	for _, cell := range c.Cells {
		if cell.Kind != Gate {
			continue
		}
		for _, nid := range cell.Fanin {
			drv := c.Cells[c.Nets[nid].Driver()]
			if drv.Kind == Gate && drv.ID >= cell.ID {
				t.Fatalf("gate %q (id %d) consumes later gate %q (id %d)", cell.Name, cell.ID, drv.Name, drv.ID)
			}
		}
	}
}

func TestGenerateRejectsBadSpec(t *testing.T) {
	if _, err := Generate(GenSpec{Cells: 0}); err == nil {
		t.Error("expected error for zero cells")
	}
	if _, err := Generate(GenSpec{Cells: 10, FlipFlops: 11}); err == nil {
		t.Error("expected error for more flip-flops than cells")
	}
	// FlipFlops == Cells (an FF-only circuit) is a legal corner since the
	// generator feeds every D input from the level-0 pool.
	if _, err := Generate(GenSpec{Cells: 10, FlipFlops: 10}); err != nil {
		t.Errorf("all-FF circuit rejected: %v", err)
	}
}

func TestPadsOnBoundary(t *testing.T) {
	c, err := Generate(GenSpec{Name: "t4", Cells: 200, FlipFlops: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range c.Cells {
		if !cell.Fixed {
			continue
		}
		p := cell.Pos
		onEdge := p.X == c.Die.Lo.X || p.X == c.Die.Hi.X || p.Y == c.Die.Lo.Y || p.Y == c.Die.Hi.Y
		if !onEdge {
			t.Fatalf("pad %q at %v not on boundary %v", cell.Name, p, c.Die)
		}
	}
}

func TestPerimeterPoint(t *testing.T) {
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 20))
	cases := []struct {
		d    float64
		want geom.Point
	}{
		{0, geom.Pt(0, 0)},
		{10, geom.Pt(10, 0)},
		{30, geom.Pt(10, 20)},
		{40, geom.Pt(0, 20)},
		{60, geom.Pt(0, 0)}, // wraps
		{-10, geom.Pt(0, 10)},
	}
	for _, c := range cases {
		if got := perimeterPoint(die, c.d); got.Manhattan(c.want) > 1e-9 {
			t.Errorf("perimeterPoint(%v) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestAccessorsAndStrings(t *testing.T) {
	for _, k := range []Kind{Gate, FF, Input, Output, Kind(99)} {
		if k.String() == "" {
			t.Error("empty Kind string")
		}
	}
	if FuncNone.String() != "NONE" || FuncDFF.String() != "DFF" {
		t.Error("Func strings wrong")
	}
}

func TestSizePhysical(t *testing.T) {
	c, err := ParseBench("simple", strings.NewReader(benchSrc))
	if err != nil {
		t.Fatal(err)
	}
	if err := SizePhysical(c, 0); err != nil {
		t.Fatal(err)
	}
	if c.Die.Area() <= 0 {
		t.Fatal("die not sized")
	}
	for _, cell := range c.Cells {
		if cell.Fixed {
			continue
		}
		if cell.W <= 0 || cell.H <= 0 {
			t.Errorf("cell %q not sized", cell.Name)
		}
		if !c.Die.Contains(cell.Pos) {
			t.Errorf("cell %q at %v outside die", cell.Name, cell.Pos)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Empty circuit errors.
	if err := SizePhysical(New("empty"), 0); err == nil {
		t.Error("empty circuit sized")
	}
}
