// Package power implements the power models of Section VIII: dynamic power
// (eq. 8) split into clock-net and signal-net components, the buffer-count
// estimation used for signal nets (after Alpert et al. [31]), and the
// leakage model (eq. 9).
//
// Units: capacitance fF, frequency GHz, voltage V, power mW, length um.
package power

import (
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/steiner"
)

// Params is the power calibration.
type Params struct {
	VDD         float64 // supply voltage, V
	FClk        float64 // clock frequency, GHz
	AlphaClock  float64 // clock switching activity (1.0: toggles every cycle)
	AlphaSignal float64 // signal switching activity (0.15 per [30])
	CWire       float64 // wire capacitance, fF/um
	CPin        float64 // gate/flip-flop input pin capacitance, fF
	CFFClk      float64 // flip-flop clock pin capacitance, fF
	BufCin      float64 // buffer input capacitance, fF
	BufEvery    float64 // one signal buffer per this much wirelength, um
	IOff        float64 // unit leakage current, uA per unit transistor width
	SizeFF      float64 // flip-flop gate size (unit widths)
	SizeInv     float64 // average inverter/gate size (unit widths)
}

// DefaultParams matches the experimental setup: 1 GHz, 1.1 V, alpha 0.15
// for signals per Liao/He [30].
func DefaultParams() Params {
	return Params{
		VDD:         1.1,
		FClk:        1.0,
		AlphaClock:  1.0,
		AlphaSignal: 0.15,
		CWire:       0.2,
		CPin:        8,
		CFFClk:      8,
		BufCin:      12,
		BufEvery:    450,
		IOff:        0.02,
		SizeFF:      12,
		SizeInv:     4,
	}
}

// Dynamic returns the dynamic power (mW) of load fF switching with activity
// alpha at FClk: P = (1/2) alpha Vdd^2 f C (eq. 8).
// fF * GHz * V^2 = 1e-15 F * 1e9 /s * V^2 = 1e-6 W, so the result divides by 1000.
func (p Params) Dynamic(alpha, loadFF float64) float64 {
	return 0.5 * alpha * p.VDD * p.VDD * p.FClk * loadFF / 1000
}

// Clock returns the clock-net dynamic power (mW): the tapping wires from the
// rotary rings plus every flip-flop clock pin, all switching every cycle.
func (p Params) Clock(tapWL float64, numFF int) float64 {
	load := p.CWire*tapWL + p.CFFClk*float64(numFF)
	return p.Dynamic(p.AlphaClock, load)
}

// SignalBreakdown details the signal-net capacitance estimate.
type SignalBreakdown struct {
	WireCap  float64 // fF
	PinCap   float64 // fF
	BufCap   float64 // fF
	NumBufs  int
	TotalCap float64 // fF
	Power    float64 // mW
}

// SignalFromWL estimates the signal-net dynamic power (mW) of a placed
// circuit whose total HPWL is wl (c.SignalWL(), or a cache bit-equal to
// it): interconnect capacitance from the HPWL, input pin capacitance of
// every connected sink, and the buffers inserted on long wires (estimated as
// one per BufEvery um of wirelength, the floorplan-level estimate of [31]).
func (p Params) SignalFromWL(c *netlist.Circuit, wl float64) SignalBreakdown {
	pins := 0
	for _, n := range c.Nets {
		if len(n.Pins) >= 2 {
			pins += len(n.Pins) - 1
		}
	}
	nBufs := 0
	if p.BufEvery > 0 {
		nBufs = int(wl / p.BufEvery)
	}
	b := SignalBreakdown{
		WireCap: p.CWire * wl,
		PinCap:  p.CPin * float64(pins),
		BufCap:  p.BufCin * float64(nBufs),
		NumBufs: nBufs,
	}
	b.TotalCap = b.WireCap + b.PinCap + b.BufCap
	b.Power = p.Dynamic(p.AlphaSignal, b.TotalCap)
	return b
}

// SignalSteiner is Signal with net lengths estimated by rectilinear Steiner
// trees instead of HPWL — a tighter routed-length model for multi-pin nets
// (HPWL underestimates nets with 4+ pins). Used by the wire-model ablation.
func (p Params) SignalSteiner(c *netlist.Circuit) SignalBreakdown {
	wl := 0.0
	pts := make([]geom.Point, 0, 16)
	for _, n := range c.Nets {
		if len(n.Pins) < 2 {
			continue
		}
		pts = pts[:0]
		for _, id := range n.Pins {
			pts = append(pts, c.Cells[id].Pos)
		}
		wl += steiner.NetLength(pts)
	}
	return p.SignalFromWL(c, wl)
}

// Leakage returns the static power (mW) per eq. (9):
// P = Vdd * Ioff * (S + N_F * S_F), with S the total gate size.
// uA * V = uW, so the result divides by 1000.
func (p Params) Leakage(numGates, numFF int) float64 {
	s := p.SizeInv * float64(numGates)
	return p.VDD * p.IOff * (s + float64(numFF)*p.SizeFF) / 1000
}
