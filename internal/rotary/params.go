// Package rotary models rotary traveling-wave clock rings: square
// differential-pair rings tiled into an array (Wood et al., JSSC 2001), the
// position-to-phase map along each ring, and the flexible-tapping solver of
// Section III of the paper, which finds the point on a ring (plus stub wire)
// that realizes a given clock-delay target for a flip-flop at an arbitrary
// location.
//
// Units: length in micrometers, time in picoseconds, resistance in kilo-ohms,
// capacitance in femtofarads (so kOhm*fF = ps exactly), inductance in
// picohenries.
//
// Error discipline: invalid caller-supplied data — non-physical Params,
// non-finite tapping queries, degenerate ring geometry — returns errors; a
// target that simply cannot be realized returns an error wrapping ErrNoTap.
// The package does not panic on any input.
package rotary

import "fmt"

// Params collects the electrical and timing constants of a rotary clock
// design. The defaults are calibrated to a 100 nm-class metal stack (the
// paper used bptm interconnect parameters) and a 1 GHz operating frequency,
// matching the paper's experimental setup.
type Params struct {
	Period float64 // clock period T, ps
	RWire  float64 // wire resistance, kOhm/um
	CWire  float64 // wire capacitance, fF/um
	CFF    float64 // flip-flop clock-pin input capacitance, fF
	CRing  float64 // ring self-capacitance per unit length, fF/um
	LRing  float64 // ring inductance per unit length, pH/um
}

// DefaultParams returns the calibration used by all experiments: 1 GHz,
// r = 0.1 Ohm/um, c = 0.2 fF/um, 8 fF flip-flop clock pins.
func DefaultParams() Params {
	return Params{
		Period: 1000,   // 1 GHz
		RWire:  0.0001, // 0.1 Ohm/um in kOhm/um
		CWire:  0.2,
		CFF:    8,
		CRing:  0.8,
		LRing:  40, // calibrated so a ~0.6 mm ring self-oscillates near 1 GHz
	}
}

// Validate checks that the parameters are physically meaningful.
func (p Params) Validate() error {
	switch {
	case p.Period <= 0:
		return fmt.Errorf("rotary: Period must be positive, got %v", p.Period)
	case p.RWire <= 0 || p.CWire <= 0:
		return fmt.Errorf("rotary: wire RC must be positive, got r=%v c=%v", p.RWire, p.CWire)
	case p.CFF < 0:
		return fmt.Errorf("rotary: CFF must be non-negative, got %v", p.CFF)
	}
	return nil
}

// StubDelay returns the Elmore delay (ps) of a stub wire of length l um
// driving one flip-flop clock pin: (1/2) r c l^2 + r l C_ff, exactly the
// delay term of the paper's equation (1).
func (p Params) StubDelay(l float64) float64 {
	return 0.5*p.RWire*p.CWire*l*l + p.RWire*p.CFF*l
}

// StubCap returns the capacitive load (fF) a stub of length l plus its
// flip-flop presents to the ring: the C_p^{ij} of Section VI.
func (p Params) StubCap(l float64) float64 {
	return p.CWire*l + p.CFF
}
