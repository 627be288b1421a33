package eco

import (
	"slices"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/netlist"
)

// SignalWL is an immutable cache of a placed circuit's signal wirelength:
// the HPWL of every net and their total. Update derives the cache of an
// edited circuit from the edit's scope by re-measuring only the nets the
// edit touched and re-summing every net in net order, so Total is
// bit-equal to Circuit.SignalWL.
//
// Like timing.STA, a SignalWL holds no pointer into the circuit and every
// slice it holds is read-only once built, so concurrent readers, and
// concurrent Updates from one shared base, are safe.
type SignalWL struct {
	net   []float64 // per net: its HPWL
	total float64
	nets  int // nets the pass that built the cache measured
}

// NewSignalWL measures every net of the placed circuit and keeps the
// result as a cache.
func NewSignalWL(c *netlist.Circuit) *SignalWL {
	w := &SignalWL{net: make([]float64, len(c.Nets)), nets: len(c.Nets)}
	for ni, n := range c.Nets {
		w.net[ni] = c.NetWL(n.Pins)
	}
	w.sum()
	return w
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

// Update returns the cache of c, which must be the circuit w describes
// after in-place edits within the given scope: cells lists every cell that
// moved and nets every net whose pins changed. Extra entries cost work,
// never exactness. No edit may change the net count, and Cell.Fanin and
// Cell.Fanout must list every net a cell is on, as AddNet and every ECO
// delta keep them. w is not modified.
//
// The touched nets are the scope nets plus every scope cell's Fanin and
// Fanout nets; only they are re-measured.
func (w *SignalWL) Update(c *netlist.Circuit, cells, nets []int) *SignalWL {
	touched := slices.Clone(nets)
	for _, id := range cells {
		cell := c.Cells[id]
		touched = append(touched, cell.Fanin...)
		if cell.Fanout >= 0 {
			touched = append(touched, cell.Fanout)
		}
	}
	touched = sortedSet(touched)
	nw := &SignalWL{net: slices.Clone(w.net)}
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
