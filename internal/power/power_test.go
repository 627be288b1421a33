package power

import (
	"math"
	"testing"

	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
)

func TestDynamicFormula(t *testing.T) {
	p := DefaultParams()
	// P = 0.5 * 1 * 1.1^2 * 1GHz * 1000fF = 0.605 uW*1000 = 0.605 mW.
	got := p.Dynamic(1.0, 1000)
	want := 0.5 * 1.1 * 1.1 * 1.0 * 1000 / 1000
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Dynamic = %v, want %v", got, want)
	}
	if p.Dynamic(0, 1000) != 0 {
		t.Error("zero activity must give zero power")
	}
}

func TestClockPowerComponents(t *testing.T) {
	p := DefaultParams()
	wireOnly := p.Clock(1000, 0)
	ffOnly := p.Clock(0, 100)
	both := p.Clock(1000, 100)
	if math.Abs(both-wireOnly-ffOnly) > 1e-12 {
		t.Errorf("clock power not additive: %v vs %v + %v", both, wireOnly, ffOnly)
	}
	if wireOnly <= 0 || ffOnly <= 0 {
		t.Error("clock power components must be positive")
	}
}

func TestSignalPower(t *testing.T) {
	c := netlist.New("s")
	c.Die = geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))
	a := c.AddCell(&netlist.Cell{Name: "a", Kind: netlist.Gate})
	b := c.AddCell(&netlist.Cell{Name: "b", Kind: netlist.Gate})
	d := c.AddCell(&netlist.Cell{Name: "d", Kind: netlist.Gate})
	a.Pos = geom.Pt(0, 0)
	b.Pos = geom.Pt(900, 0)
	d.Pos = geom.Pt(900, 100)
	c.AddNet("n", a.ID, b.ID, d.ID) // HPWL = 1000
	p := DefaultParams()
	br := p.SignalFromWL(c, c.SignalWL())
	if math.Abs(br.WireCap-0.2*1000) > 1e-9 {
		t.Errorf("WireCap = %v", br.WireCap)
	}
	if math.Abs(br.PinCap-2*8) > 1e-9 {
		t.Errorf("PinCap = %v", br.PinCap)
	}
	if br.NumBufs != int(1000/p.BufEvery) {
		t.Errorf("NumBufs = %d", br.NumBufs)
	}
	if math.Abs(br.TotalCap-(br.WireCap+br.PinCap+br.BufCap)) > 1e-9 {
		t.Errorf("TotalCap inconsistent")
	}
	wantP := p.Dynamic(p.AlphaSignal, br.TotalCap)
	if math.Abs(br.Power-wantP) > 1e-12 {
		t.Errorf("Power = %v, want %v", br.Power, wantP)
	}
}

func TestSignalPowerGrowsWithWL(t *testing.T) {
	mk := func(dist float64) float64 {
		c := netlist.New("s")
		c.Die = geom.NewRect(geom.Pt(0, 0), geom.Pt(5000, 5000))
		a := c.AddCell(&netlist.Cell{Name: "a", Kind: netlist.Gate})
		b := c.AddCell(&netlist.Cell{Name: "b", Kind: netlist.Gate})
		a.Pos = geom.Pt(0, 0)
		b.Pos = geom.Pt(dist, 0)
		c.AddNet("n", a.ID, b.ID)
		return DefaultParams().SignalFromWL(c, c.SignalWL()).Power
	}
	if mk(2000) <= mk(100) {
		t.Error("signal power must grow with wirelength")
	}
}

func TestLeakage(t *testing.T) {
	p := DefaultParams()
	got := p.Leakage(1000, 100)
	want := p.VDD * p.IOff * (p.SizeInv*1000 + 100*p.SizeFF) / 1000
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Leakage = %v, want %v", got, want)
	}
	// Leakage is placement independent: only counts matter.
	if p.Leakage(0, 0) != 0 {
		t.Error("empty circuit must have zero leakage")
	}
}

func TestZeroBufEvery(t *testing.T) {
	p := DefaultParams()
	p.BufEvery = 0
	c := netlist.New("s")
	c.Die = geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	a := c.AddCell(&netlist.Cell{Name: "a", Kind: netlist.Gate})
	b := c.AddCell(&netlist.Cell{Name: "b", Kind: netlist.Gate})
	b.Pos = geom.Pt(50, 0)
	c.AddNet("n", a.ID, b.ID)
	if br := p.SignalFromWL(c, c.SignalWL()); br.NumBufs != 0 {
		t.Errorf("NumBufs = %d with buffering disabled", br.NumBufs)
	}
}

func TestSignalSteinerVsHPWL(t *testing.T) {
	// A 4-pin cross net: Steiner length (20) < HPWL (20)? HPWL of the plus
	// is also 20, so use a net where HPWL underestimates: 4 corner pins.
	c := netlist.New("st")
	c.Die = geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	var ids []int
	for _, p := range []geom.Point{
		geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(0, 100), geom.Pt(100, 100),
	} {
		cell := c.AddCell(&netlist.Cell{Name: "x", Kind: netlist.Gate})
		cell.Pos = p
		ids = append(ids, cell.ID)
	}
	c.AddNet("n", ids...)
	p := DefaultParams()
	hp := p.SignalFromWL(c, c.SignalWL())
	st := p.SignalSteiner(c)
	// Four corners: HPWL = 200, RSMT = 300 -> Steiner model sees more wire.
	if st.WireCap <= hp.WireCap {
		t.Errorf("Steiner wire cap %v should exceed HPWL's %v on corner net", st.WireCap, hp.WireCap)
	}
	if st.PinCap != hp.PinCap {
		t.Errorf("pin caps differ: %v vs %v", st.PinCap, hp.PinCap)
	}
}

func TestSignalSteinerTwoPinMatchesHPWL(t *testing.T) {
	c := netlist.New("st2")
	c.Die = geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))
	a := c.AddCell(&netlist.Cell{Name: "a", Kind: netlist.Gate})
	b := c.AddCell(&netlist.Cell{Name: "b", Kind: netlist.Gate})
	d := c.AddCell(&netlist.Cell{Name: "d", Kind: netlist.Gate})
	b.Pos = geom.Pt(30, 40)
	d.Pos = geom.Pt(700, 600) // long enough for signal buffers
	c.AddNet("n", a.ID, b.ID)
	c.AddNet("m", b.ID, d.ID)
	c.AddNet("lone", d.ID) // a one-pin net counts no pin in either model
	p := DefaultParams()
	hp, st := p.SignalFromWL(c, c.SignalWL()), p.SignalSteiner(c)
	if hp.NumBufs == 0 {
		t.Fatalf("no buffers in %+v; the check needs some", hp)
	}
	if hp != st {
		t.Errorf("2-pin nets must agree on the whole breakdown: %+v vs %+v", hp, st)
	}
}
