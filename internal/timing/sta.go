package timing

import (
	"slices"
	"sync"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/skew"
)

// STA is an immutable static-timing cache of one placed circuit: its timing
// graph, the nets each cell drives, and one row of sequential pairs per
// flip-flop source. Update derives the cache of an edited circuit from the
// edit's scope, the cells and nets the caller changed, by re-running the
// per-source kernel only for the sources whose cone the edit touched and
// copying every other row, so an edit costs O(scope + dirty cones) instead
// of a full analysis.
//
// An STA holds no pointer into the circuit and no kernel scratch; every
// slice it holds is read-only once built. Concurrent readers, and
// concurrent Updates from one shared base, are safe.
type STA struct {
	m      Model
	g      graph
	drives [][]int  // per cell: the nets it drives, in net-index order
	ffs    []int    // flip-flop cell IDs, in cell-ID order
	rows   [][]Pair // per cell ID: the pairs that flip-flop launches
	work   Work
}

// Work describes the pass that produced an STA value.
type Work struct {
	Sources int  // flip-flop sources the kernel ran for
	Reused  int  // rows copied unchanged from the previous cache
	Full    bool // the value came from a full build
}

// NewSTA runs a full analysis of the placed circuit and keeps it as a
// cache. Its rows concatenate to Analyze's pairs. It errors on a
// combinational cycle.
func NewSTA(c *netlist.Circuit, m Model) (*STA, error) {
	g, err := newGraph(c, m)
	if err != nil {
		return nil, err
	}
	n := len(c.Cells)
	s := &STA{
		m:      m,
		g:      *g,
		drives: drivenNets(c.Nets, n),
		ffs:    c.FlipFlops(),
		rows:   make([][]Pair, n),
	}
	s.run(s.ffs)
	s.work = Work{Sources: len(s.ffs), Full: true}
	return s, nil
}

// drivenNets maps each of n cells to the nets it drives, in net-index
// order: the order buildArcs appends a driver's arcs in.
func drivenNets(nets []*netlist.Net, n int) [][]int {
	drives := make([][]int, n)
	for ni, net := range nets {
		if d := net.Driver(); d >= 0 {
			drives[d] = append(drives[d], ni)
		}
	}
	return drives
}

// Work reports what the pass that built s did.
func (s *STA) Work() Work { return s.work }

// Pairs concatenates the rows in flip-flop ID order and maps them onto
// schedule indices through the dense index ffIdx (FFIndex), exactly as
// SeqPairs does for a full analysis.
func (s *STA) Pairs(ffIdx []int) ([]skew.SeqPair, error) {
	total := 0
	for _, f := range s.ffs {
		total += len(s.rows[f])
	}
	out := make([]skew.SeqPair, 0, total)
	var err error
	for _, f := range s.ffs {
		if out, err = appendSeqPairs(out, s.rows[f], ffIdx); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scratchPool recycles kernel scratch across runs. A pooled scratch may be
// larger than the circuit at hand: the kernel touches only the cells of the
// cone it is sourcing, re-initializes every one of them, and its epoch only
// grows, so no leftover value is ever read.
var scratchPool sync.Pool

// run re-propagates the given sources on s's graph and stores their rows.
func (s *STA) run(srcs []int) {
	if len(srcs) == 0 {
		return
	}
	w, _ := scratchPool.Get().(*scratch)
	if w == nil || len(w.stamp) < len(s.g.kind) {
		w = newScratch(len(s.g.kind))
	}
	defer scratchPool.Put(w)
	var row []Pair
	capture := func(_ *cone, src, v int, dMax, dMin float64) {
		row = append(row, Pair{From: src, To: v, DMax: dMax, DMin: dMin})
	}
	for _, src := range srcs {
		row = nil
		s.g.source(w, src, capture)
		s.rows[src] = row
	}
}

// Update returns the cache of c, which must be the circuit s describes
// after in-place edits within the given scope: cells lists every cell whose
// position, kind or function changed, and nets every net whose sink pins
// changed. Extra entries cost work, never exactness; a changed cell or net
// left out leaves stale rows. No edit may change the cell or net count or a
// net's driver, and no ECO delta does. s is not modified; the result shares
// every slice the edit left unchanged. Cell.Fanin must list every net a
// cell sinks, as AddNet and every ECO delta keep it. Like Analyze it errors
// on a combinational cycle.
//
// The changed nets are the scope nets plus the nets touching a scope cell
// (its Fanin nets and the nets it drives). Their drivers' arcs are rebuilt
// with the one per-net builder. Every cell whose arc list or kind changed
// seeds a backward walk through Cell.Fanin drivers that continues through
// gates and stops at flip-flops; the flip-flops it reaches, new ones
// included, are the dirty sources, and only they re-run the kernel.
// DESIGN.md section 25 argues why every other row is exact.
func (s *STA) Update(c *netlist.Circuit, cells, nets []int) (*STA, error) {
	ns := *s
	var kindChanged []int
	for _, id := range cells {
		if c.Cells[id].Kind != s.g.kind[id] {
			kindChanged = append(kindChanged, id)
		}
	}
	if len(kindChanged) > 0 {
		ns.g.kind = slices.Clone(s.g.kind)
		for _, id := range kindChanged {
			ns.g.kind[id] = c.Cells[id].Kind
		}
		ns.ffs = c.FlipFlops()
	}

	// Rebuild the arcs of every changed net's driver, from every net it
	// drives.
	seen := make([]bool, len(s.g.kind))
	var drivers []int
	addDriver := func(ni int) {
		if d := c.Nets[ni].Driver(); d >= 0 && !seen[d] {
			seen[d] = true
			drivers = append(drivers, d)
		}
	}
	for _, ni := range nets {
		addDriver(ni)
	}
	for _, id := range cells {
		for _, ni := range c.Cells[id].Fanin {
			addDriver(ni)
		}
		for _, ni := range s.drives[id] {
			addDriver(ni)
		}
	}
	clear(seen)
	var seeds []int
	addSeed := func(u int) {
		if !seen[u] {
			seen[u] = true
			seeds = append(seeds, u)
		}
	}
	if len(drivers) > 0 {
		ns.g.adj = slices.Clone(s.g.adj)
	}
	for _, u := range drivers {
		var arcs []edge
		for _, ni := range ns.drives[u] {
			arcs = netArcs(arcs, c, s.m, ni)
		}
		if !slices.Equal(arcs, s.g.adj[u]) {
			ns.g.adj[u] = arcs
			addSeed(u)
		}
	}
	for _, id := range kindChanged {
		addSeed(id)
	}
	if len(kindChanged) > 0 || len(nets) > 0 {
		topoIdx, err := topoOrder(c, ns.g.adj)
		if err != nil {
			return nil, err
		}
		ns.g.topoIdx = topoIdx
	}

	// Walk backward from the seeds: each seed's fanin drivers, then on
	// through gates, stopping at flip-flops. The flip-flops reached (seeds
	// included) are the dirty sources.
	var dirty, stack []int
	expand := func(u int) {
		for _, ni := range c.Cells[u].Fanin {
			if d := c.Nets[ni].Driver(); d >= 0 && !seen[d] {
				seen[d] = true
				stack = append(stack, d)
			}
		}
	}
	for _, u := range seeds {
		if ns.g.kind[u] == netlist.FF {
			dirty = append(dirty, u)
		}
		expand(u)
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if ns.g.kind[u] == netlist.FF {
			dirty = append(dirty, u)
			continue
		}
		expand(u)
	}
	slices.Sort(dirty)

	ns.rows = slices.Clone(s.rows)
	for _, id := range kindChanged {
		if ns.g.kind[id] != netlist.FF {
			ns.rows[id] = nil
		}
	}
	// An armed SiteTimingSTAScope silently skips one dirty source, keeping
	// its stale row: the scoping bug the ECO oracle's pair check must catch.
	if len(dirty) > 0 && faultinject.Hook(faultinject.SiteTimingSTAScope) != nil {
		dirty = dirty[1:]
	}
	ns.run(dirty)
	ns.work = Work{Sources: len(dirty), Reused: len(ns.ffs) - len(dirty)}
	return &ns, nil
}
