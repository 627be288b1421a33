package eco

import (
	"slices"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
)

// SignalWL is an immutable cache of a placed circuit's signal wirelength:
// the HPWL of every net and the cell positions and pin lists it was
// measured at. Update derives the cache of an edited circuit by
// re-measuring only the nets the edit touched and re-summing every net in
// net order, so Total is bit-equal to Circuit.SignalWL.
//
// Like timing.STA, a SignalWL holds no pointer into the circuit and every
// slice it holds is read-only once built, so concurrent readers, and
// concurrent Updates from one shared base, are safe.
type SignalWL struct {
	pos   []geom.Point // per cell
	start []int        // per net: its pins are pins[start[ni]:start[ni+1]]
	pins  []int        // every net's pin list, concatenated in net order
	net   []float64    // per net: its HPWL
	total float64
	nets  int // nets the pass that built the cache measured
}

// NewSignalWL measures every net of the placed circuit and keeps the
// result as a cache.
func NewSignalWL(c *netlist.Circuit) *SignalWL {
	w := &SignalWL{pos: c.Positions(), net: make([]float64, len(c.Nets)), nets: len(c.Nets)}
	w.start, w.pins = flatPins(c.Nets)
	for ni, n := range c.Nets {
		w.net[ni] = c.NetWL(n.Pins)
	}
	w.sum()
	return w
}

// flatPins concatenates the nets' pin lists.
func flatPins(nets []*netlist.Net) (start, pins []int) {
	start = make([]int, len(nets)+1)
	for ni, n := range nets {
		start[ni+1] = start[ni] + len(n.Pins)
	}
	pins = make([]int, 0, start[len(nets)])
	for _, n := range nets {
		pins = append(pins, n.Pins...)
	}
	return start, pins
}

// sum totals the per-net HPWLs in net order, the order SignalWL adds them.
func (w *SignalWL) sum() {
	w.total = 0
	for _, l := range w.net {
		w.total += l
	}
}

// Total returns the circuit's signal wirelength, bit-equal to
// Circuit.SignalWL of the circuit the cache was built or updated from.
func (w *SignalWL) Total() float64 { return w.total }

// Nets reports how many nets the pass that built w measured: every net for
// NewSignalWL, the touched ones for Update.
func (w *SignalWL) Nets() int { return w.nets }

// Update returns the cache of c, which must be the circuit w was built
// from after in-place edits (moves, sink pins added or removed). w is not
// modified; the result shares every slice the edit left unchanged. A
// change in the cell or net count falls back to a full build.
//
// The touched nets are those whose pin list changed or that hold a cell
// whose position changed; only they are re-measured.
func (w *SignalWL) Update(c *netlist.Circuit) *SignalWL {
	if len(c.Cells) != len(w.pos) || len(c.Nets) != len(w.net) {
		return NewSignalWL(c)
	}
	var pos []geom.Point // the new snapshot, cloned at the first moved cell
	for id, cell := range c.Cells {
		if cell.Pos != w.pos[id] {
			if pos == nil {
				pos = slices.Clone(w.pos)
			}
			pos[id] = cell.Pos
		}
	}
	var touched []int
	pinsChanged := false
	for ni, n := range c.Nets {
		if !slices.Equal(n.Pins, w.pins[w.start[ni]:w.start[ni+1]]) {
			touched = append(touched, ni)
			pinsChanged = true
			continue
		}
		for _, id := range n.Pins {
			if pos != nil && pos[id] != w.pos[id] {
				touched = append(touched, ni)
				break
			}
		}
	}
	nw := &SignalWL{pos: w.pos, start: w.start, pins: w.pins, net: slices.Clone(w.net)}
	if pos != nil {
		nw.pos = pos
	}
	if pinsChanged {
		nw.start, nw.pins = flatPins(c.Nets)
	}
	// An armed SiteEcoSignalWLScope silently skips one touched net, keeping
	// its stale HPWL: the scoping bug the ECO oracle's signal-WL check must
	// catch.
	if len(touched) > 0 && faultinject.Hook(faultinject.SiteEcoSignalWLScope) != nil {
		touched = touched[1:]
	}
	for _, ni := range touched {
		nw.net[ni] = c.NetWL(c.Nets[ni].Pins)
	}
	nw.nets = len(touched)
	nw.sum()
	return nw
}
