package placer

import (
	"fmt"
	"math"
	"testing"

	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
)

func TestDetailedImprovesWL(t *testing.T) {
	c := genCircuit(t, 500, 60, 31)
	if err := Global(c, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := Legalize(c); err != nil {
		t.Fatal(err)
	}
	before := c.SignalWL()
	gain, err := Detailed(c, 3, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := c.SignalWL()
	if gain <= 0 {
		t.Errorf("detailed placement found no improvement")
	}
	if math.Abs((before-after)-gain) > 1e-6*(1+before) {
		t.Errorf("claimed gain %v but WL moved %v", gain, before-after)
	}
	if after >= before {
		t.Errorf("WL did not improve: %v -> %v", before, after)
	}
	// Legality preserved.
	if ov := MaxOverlap(c); ov > 1e-9 {
		t.Errorf("detailed placement created overlap %v", ov)
	}
}

func TestDetailedIdempotentAtFixpoint(t *testing.T) {
	c := genCircuit(t, 300, 40, 32)
	if err := Global(c, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := Legalize(c); err != nil {
		t.Fatal(err)
	}
	if _, err := Detailed(c, 10, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	// A second run from the fixpoint finds nothing.
	gain, err := Detailed(c, 10, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gain > 1e-9 {
		t.Errorf("second run still improved by %v", gain)
	}
}

func TestDetailedKnownSwap(t *testing.T) {
	// Two cells whose positions are crossed relative to their partners:
	// swapping them is the obvious win.
	c := netlist.New("swap")
	c.Die = geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	a := c.AddCell(&netlist.Cell{Name: "a", Kind: netlist.Gate, W: 4, H: 4})
	b := c.AddCell(&netlist.Cell{Name: "b", Kind: netlist.Gate, W: 4, H: 4})
	pa := c.AddCell(&netlist.Cell{Name: "pa", Kind: netlist.Input, Fixed: true})
	pb := c.AddCell(&netlist.Cell{Name: "pb", Kind: netlist.Input, Fixed: true})
	pa.Pos = geom.Pt(0, 50)
	pb.Pos = geom.Pt(100, 50)
	a.Pos = geom.Pt(60, 50) // a wants to be near pa (left) but sits right
	b.Pos = geom.Pt(40, 50)
	c.AddNet("na", pa.ID, a.ID)
	c.AddNet("nb", pb.ID, b.ID)
	before := c.SignalWL()
	gain, err := Detailed(c, 2, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gain <= 0 || c.SignalWL() >= before {
		t.Errorf("known beneficial swap not taken: gain %v, WL %v -> %v", gain, before, c.SignalWL())
	}
	if a.Pos.X > b.Pos.X {
		t.Errorf("cells not swapped: a at %v, b at %v", a.Pos, b.Pos)
	}
}

func TestDetailedEmptyAndErrors(t *testing.T) {
	c := netlist.New("tiny")
	c.Die = geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	if _, err := Detailed(c, 1, nil, nil, nil); err != nil {
		t.Fatalf("empty circuit should be a no-op: %v", err)
	}
	bad := netlist.New("bad")
	if _, err := Detailed(bad, 1, nil, nil, nil); err == nil {
		t.Error("empty die accepted")
	}
}

func TestDetailedExcludingPinsCells(t *testing.T) {
	c := genCircuit(t, 400, 50, 33)
	if err := Global(c, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := Legalize(c); err != nil {
		t.Fatal(err)
	}
	ffs := c.FlipFlops()
	before := make(map[int]geom.Point, len(ffs))
	for _, id := range ffs {
		before[id] = c.Cells[id].Pos
	}
	if _, err := Detailed(c, 3, ffs, nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, id := range ffs {
		if c.Cells[id].Pos != before[id] {
			t.Fatalf("excluded flip-flop %d moved", id)
		}
	}
	if ov := MaxOverlap(c); ov > 1e-9 {
		t.Errorf("overlap %v after excluding swaps", ov)
	}
}

// BenchmarkDetailed times the flow's stage-1 call (two passes, nothing
// pinned) on a legalized circuit with 1% flip-flops, cloned outside the
// timer for every iteration, and reports the net rescans and the swaps the
// lower bound rejected per call.
func BenchmarkDetailed(b *testing.B) {
	for _, cells := range []int{5000, 20000} {
		b.Run(fmt.Sprintf("cells=%d", cells), func(b *testing.B) {
			c := legalCircuit(b, cells, cells/100, 1)
			reg := obs.NewRegistry()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := c.Clone()
				b.StartTimer()
				if _, err := Detailed(d, 2, nil, reg, nil); err != nil {
					b.Fatal(err)
				}
			}
			n := float64(b.N)
			b.ReportMetric(float64(reg.Counter("placer.detailed.rescans"))/n, "rescans/op")
			b.ReportMetric(float64(reg.Counter("placer.detailed.pruned"))/n, "pruned/op")
		})
	}
}
