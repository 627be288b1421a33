// Package timing is the static timing analysis substrate used by skew
// optimization: it extracts sequentially adjacent flip-flop pairs from a
// placed netlist and computes the maximum and minimum combinational delays
// D_max/D_min between them under the Elmore delay model (the paper's
// Section VII setup uses exactly this model).
//
// Units match the rest of the repository: micrometers, picoseconds,
// kilo-ohms, femtofarads.
package timing

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"rotaryclk/internal/netlist"
	"rotaryclk/internal/skew"
)

// ErrCycle reports a combinational cycle: the circuit has a gate loop not
// broken by a flip-flop, so no topological propagation order exists. It is a
// property of the input netlist, not of the analysis.
var ErrCycle = errors.New("timing: combinational cycle detected")

// Model holds the timing calibration: per-function intrinsic delays, the
// driver output resistance, the interconnect RC, and the sequential
// element's setup/hold requirements.
type Model struct {
	Intrinsic map[netlist.Func]float64 // ps, switching delay of the gate itself
	DriveRes  float64                  // kOhm, driver output resistance
	RWire     float64                  // kOhm/um
	CWire     float64                  // fF/um
	CPin      float64                  // fF, input pin capacitance
	TSetup    float64                  // ps
	THold     float64                  // ps

	// Implicit buffering. Physical synthesis buffers high-fanout and long
	// nets, so the load a driver actually sees saturates. MaxFanout caps
	// the number of pin loads and MaxWireLoad the wire length (um) charged
	// to the driver; LBuf is the length beyond which wire delay grows
	// linearly (repeatered) instead of quadratically.
	MaxFanout   int
	MaxWireLoad float64
	LBuf        float64
}

// DefaultModel returns a 100 nm-class calibration (bptm-style interconnect,
// gate delays in the tens of picoseconds) consistent with the paper's 1 GHz
// operating point.
func DefaultModel() Model {
	return Model{
		Intrinsic: map[netlist.Func]float64{
			netlist.FuncBuf:  18,
			netlist.FuncNot:  12,
			netlist.FuncAnd:  28,
			netlist.FuncNand: 20,
			netlist.FuncOr:   30,
			netlist.FuncNor:  24,
			netlist.FuncXor:  42,
			netlist.FuncXnor: 44,
			netlist.FuncDFF:  35, // clock-to-Q
			netlist.FuncNone: 20,
		},
		DriveRes:    0.6,
		RWire:       0.0001,
		CWire:       0.2,
		CPin:        8,
		TSetup:      30,
		THold:       15,
		MaxFanout:   4,
		MaxWireLoad: 300,
		LBuf:        500,
	}
}

// wireDelay returns the interconnect delay of a point-to-point connection of
// length L: quadratic Elmore up to LBuf, then linear (repeatered).
func (m Model) wireDelay(L float64) float64 {
	if m.LBuf <= 0 || L <= m.LBuf {
		return m.RWire * L * (m.CWire*L/2 + m.CPin)
	}
	atBuf := m.RWire * m.LBuf * (m.CWire*m.LBuf/2 + m.CPin)
	slope := m.RWire * (m.CWire*m.LBuf + m.CPin)
	return atBuf + slope*(L-m.LBuf)
}

// driverLoad returns the capacitance charged to a driver with the given
// total net capacitance, saturating at the implicit-buffering cap.
func (m Model) driverLoad(cTotal float64) float64 {
	cap := m.CPin*float64(m.MaxFanout) + m.CWire*m.MaxWireLoad
	if m.MaxFanout <= 0 || cTotal <= cap {
		return cTotal
	}
	return cap
}

// Pair records one sequentially adjacent flip-flop pair i |-> j with its
// extreme combinational delays over all connecting paths.
type Pair struct {
	From, To   int // cell IDs of the launching and capturing flip-flop
	DMax, DMin float64
}

// Result is the output of Analyze.
type Result struct {
	Pairs []Pair
	// MaxComb is the largest D_max over all pairs, the critical
	// combinational delay of the circuit.
	MaxComb float64
}

// PermissibleRange returns the skew window [lo, hi] for t_i - t_j of a pair
// under period T and slack margin M (the Fishburn constraints (6)-(7)):
//
//	lo = M + t_hold - D_min     hi = T - D_max - t_setup - M
func (m Model) PermissibleRange(p Pair, T, M float64) (lo, hi float64) {
	return M + m.THold - p.DMin, T - p.DMax - m.TSetup - M
}

// edge is one timing arc: driver cell -> sink cell with Elmore delay. net is
// the index into Circuit.Nets of the connection the arc crosses, so path
// extraction can map a critical path back to the nets it uses.
type edge struct {
	to    int
	net   int32
	delay float64
}

// buildArcs constructs the timing arcs of the placed circuit: the arcs of
// every net, appended to its driver's list in net-index order.
func buildArcs(c *netlist.Circuit, m Model) [][]edge {
	adj := make([][]edge, len(c.Cells))
	for ni, net := range c.Nets {
		if drv := net.Driver(); drv >= 0 {
			adj[drv] = netArcs(adj[drv], c, m, ni)
		}
	}
	return adj
}

// netArcs appends the arcs of net ni, one per sink, to dst. Delay from
// driver u to sink v is
//
//	intrinsic(u) + DriveRes * C_net + r L (c L / 2 + CPin)
//
// with C_net the total capacitance the driver sees (Elmore star model). A
// net with fewer than two pins, or driven by an output pad, has no arcs.
func netArcs(dst []edge, c *netlist.Circuit, m Model, ni int) []edge {
	net := c.Nets[ni]
	drv := net.Driver()
	if drv < 0 || len(net.Pins) < 2 {
		return dst
	}
	du := c.Cells[drv]
	if du.Kind == netlist.Output {
		return dst
	}
	cTotal := 0.0
	for _, sv := range net.Sinks() {
		L := du.Pos.Manhattan(c.Cells[sv].Pos)
		cTotal += m.CWire*L + m.CPin
	}
	intr, ok := m.Intrinsic[du.Fn]
	if !ok {
		intr = m.Intrinsic[netlist.FuncNone]
	}
	load := m.driverLoad(cTotal)
	for _, sv := range net.Sinks() {
		L := du.Pos.Manhattan(c.Cells[sv].Pos)
		d := intr + m.DriveRes*load + m.wireDelay(L)
		dst = append(dst, edge{to: sv, net: int32(ni), delay: d})
	}
	return dst
}

// topoOrder returns a topological index per cell for combinational
// propagation (flip-flops, kind FF, act as sources; arcs into flip-flops
// are capture points and carry no ordering constraint): Kahn's order with
// a FIFO queue seeded in cell order. It keeps its in-degrees and queue in
// w, and errors on a combinational cycle.
func topoOrder(adj chunked[[]edge], kind []netlist.Kind, w *Workspace) ([]int32, error) {
	n := len(kind)
	indeg := slices.Grow(w.indeg[:0], n)[:n]
	clear(indeg)
	for _, ch := range adj {
		for _, arcs := range ch {
			for _, e := range arcs {
				if kind[e.to] != netlist.FF {
					indeg[e.to]++
				}
			}
		}
	}
	queue := slices.Grow(w.queue[:0], n)
	for v, d := range indeg {
		if d == 0 {
			queue = append(queue, int32(v))
		}
	}
	idx := make([]int32, n)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		idx[v] = int32(head)
		for _, e := range adj.at(int(v)) {
			if kind[e.to] == netlist.FF {
				continue
			}
			indeg[e.to]--
			if indeg[e.to] == 0 {
				queue = append(queue, int32(e.to))
			}
		}
	}
	w.indeg, w.queue = indeg, queue
	if len(queue) != n {
		return nil, fmt.Errorf("%w (%d of %d cells ordered)", ErrCycle, len(queue), n)
	}
	return idx, nil
}

// FFIndex is the dense flip-flop index of a circuit with n cells: entry id
// holds the schedule index of cell id, its position in ffs, and -1 for a
// cell without one. SeqPairs and STA.Pairs map pairs through it.
func FFIndex(n int, ffs []int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = -1
	}
	for i, id := range ffs {
		idx[id] = i
	}
	return idx
}

// SeqPairs runs Analyze and maps its pairs onto the skew solver's flip-flop
// indices through ffIdx, a dense index from FFIndex. The analysis error is
// returned unwrapped; a pair whose flip-flop has no schedule index is an
// error naming the pair.
func SeqPairs(c *netlist.Circuit, m Model, ffIdx []int) ([]skew.SeqPair, error) {
	sta, err := Analyze(c, m)
	if err != nil {
		return nil, err
	}
	return appendSeqPairs(make([]skew.SeqPair, 0, len(sta.Pairs)), sta.Pairs, ffIdx)
}

// appendSeqPairs maps pairs onto schedule indices and appends them to dst.
func appendSeqPairs(dst []skew.SeqPair, pairs []Pair, ffIdx []int) ([]skew.SeqPair, error) {
	for _, p := range pairs {
		u, v := -1, -1
		if p.From < len(ffIdx) && p.To < len(ffIdx) {
			u, v = ffIdx[p.From], ffIdx[p.To]
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("timing: pair %d -> %d: flip-flop without a schedule index", p.From, p.To)
		}
		dst = append(dst, skew.SeqPair{U: u, V: v, DMax: p.DMax, DMin: p.DMin})
	}
	return dst, nil
}

// Analyze runs block-based STA over the placed circuit and returns the
// sequential adjacency pairs. It returns an error on combinational cycles.
func Analyze(c *netlist.Circuit, m Model) (*Result, error) {
	res := &Result{}
	err := propagate(c, m, func(_ *cone, src, v int, dMax, dMin float64) {
		res.Pairs = append(res.Pairs, Pair{From: src, To: v, DMax: dMax, DMin: dMin})
		if dMax > res.MaxComb {
			res.MaxComb = dMax
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// graph is what the per-source kernel reads: the timing arcs, the
// topological index and the kind of every cell. It holds no pointer into
// the circuit, so an STA cache can keep and share it.
type graph struct {
	adj     chunked[[]edge]
	topoIdx []int32
	kind    []netlist.Kind
}

// newGraph builds the timing graph of the placed circuit. It errors on a
// combinational cycle, and on 2^31 cells or more, which the kernel's
// int32 predecessors and packed sort keys cannot index.
func newGraph(c *netlist.Circuit, m Model) (*graph, error) {
	if len(c.Cells) > math.MaxInt32 {
		return nil, fmt.Errorf("timing: %d cells exceed the kernel's 2^31 limit", len(c.Cells))
	}
	adj := chunk(buildArcs(c, m))
	kind := kinds(c)
	topoIdx, err := topoOrder(adj, kind, &Workspace{})
	if err != nil {
		return nil, err
	}
	return &graph{adj: adj, topoIdx: topoIdx, kind: kind}, nil
}

// kinds returns the kind of every cell, in cell order.
func kinds(c *netlist.Circuit) []netlist.Kind {
	kind := make([]netlist.Kind, len(c.Cells))
	for i, cell := range c.Cells {
		kind[i] = cell.Kind
	}
	return kind
}

// cone is the D_max predecessor state of the current flip-flop source: the
// arc realizing each reached cell's D_max, and the last arc of the
// self-loop path back into the source. Its arrays are reused across
// sources.
type cone struct {
	src            int
	predU, predNet []int32
	selfU, selfNet int32
}

// scratch is the kernel's working memory for one pass over n cells,
// reused across the sources of that pass.
type scratch struct {
	cone
	dmax, dmin []float64
	stamp      []int
	epoch      int
	reach      []int
	keys       []uint64 // the cone's sort keys, topoIdx<<32 | cell
}

func newScratch(n int) *scratch {
	return &scratch{
		cone:  cone{predU: make([]int32, n), predNet: make([]int32, n)},
		dmax:  make([]float64, n),
		dmin:  make([]float64, n),
		stamp: make([]int, n),
		reach: make([]int, 0, n),
		keys:  make([]uint64, 0, n),
	}
}

// propagate is the full STA pass: it builds the graph and runs the
// per-source kernel for each flip-flop source in cell-ID order. It errors
// on a combinational cycle.
func propagate(c *netlist.Circuit, m Model, capture func(k *cone, src, v int, dMax, dMin float64)) error {
	g, err := newGraph(c, m)
	if err != nil {
		return err
	}
	w := newScratch(len(c.Cells))
	for _, src := range c.FlipFlops() {
		g.source(w, src, capture)
	}
	return nil
}

// source is the STA kernel for one flip-flop source. It discovers the
// source's combinational cone (stopping at flip-flops), orders it
// topologically and relaxes D_max/D_min with the D_max predecessor arc,
// then calls capture once per sequential pair the source launches: the
// self-loop (v == src) first, then each reached flip-flop in topological
// order.
func (g *graph) source(w *scratch, src int, capture func(k *cone, src, v int, dMax, dMin float64)) {
	k, dmax, dmin, stamp := &w.cone, w.dmax, w.dmin, w.stamp
	k.src = src
	w.epoch++
	epoch := w.epoch
	// Discover the combinational cone of src (stop at flip-flops).
	reach := w.reach[:0]
	stamp[src] = epoch
	reach = append(reach, src)
	for qi := 0; qi < len(reach); qi++ {
		u := reach[qi]
		if u != src && g.kind[u] == netlist.FF {
			continue
		}
		for _, e := range g.adj.at(u) {
			if stamp[e.to] != epoch {
				stamp[e.to] = epoch
				reach = append(reach, e.to)
			}
		}
	}
	w.reach = reach
	// Relax in topological order. topoIdx is a permutation, so the order
	// is unique, and sorting the packed keys topoIdx<<32 | cell (newGraph
	// caps the cell count at 2^31) gives it without a comparison closure.
	keys := w.keys[:0]
	for _, u := range reach {
		keys = append(keys, uint64(g.topoIdx[u])<<32|uint64(u))
	}
	slices.Sort(keys)
	for i, key := range keys {
		reach[i] = int(uint32(key))
	}
	w.keys = keys
	for _, u := range reach {
		dmax[u], dmin[u] = math.Inf(-1), math.Inf(1)
		k.predU[u], k.predNet[u] = -1, -1
	}
	dmax[src], dmin[src] = 0, 0
	// Self-loop paths (src back to its own D input) are tracked
	// separately so they cannot corrupt the source seed.
	selfMax, selfMin := math.Inf(-1), math.Inf(1)
	k.selfU, k.selfNet = -1, -1
	for _, u := range reach {
		if (u != src && g.kind[u] == netlist.FF) || math.IsInf(dmax[u], -1) {
			continue
		}
		for _, e := range g.adj.at(u) {
			v := e.to
			if stamp[v] != epoch {
				continue
			}
			if v == src {
				if d := dmax[u] + e.delay; d > selfMax {
					selfMax, k.selfU, k.selfNet = d, int32(u), e.net
				}
				selfMin = math.Min(selfMin, dmin[u]+e.delay)
				continue
			}
			if d := dmax[u] + e.delay; d > dmax[v] {
				dmax[v] = d
				k.predU[v], k.predNet[v] = int32(u), e.net
			}
			if d := dmin[u] + e.delay; d < dmin[v] {
				dmin[v] = d
			}
		}
	}
	// Report the flip-flop capture points, the self-loop first.
	if !math.IsInf(selfMax, -1) {
		capture(k, src, src, selfMax, selfMin)
	}
	for _, v := range reach {
		if v == src || g.kind[v] != netlist.FF || math.IsInf(dmax[v], -1) {
			continue
		}
		capture(k, src, v, dmax[v], dmin[v])
	}
}
