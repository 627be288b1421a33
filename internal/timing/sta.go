package timing

import (
	"slices"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/skew"
)

// STA is an immutable static-timing cache of one placed circuit: its timing
// graph, the nets each cell drives, and one row of sequential pairs per
// flip-flop source. Update derives the cache of an edited circuit from the
// edit's scope, the cells and nets the caller changed, by re-running the
// per-source kernel only for the sources whose cone the edit touched and
// sharing every other row, so an edit costs O(scope + dirty cones) instead
// of a full analysis.
//
// An STA holds no pointer into the circuit and no kernel scratch; every
// slice it holds is read-only once built. Concurrent readers, and
// concurrent Updates from one shared base each with its own Workspace, are
// safe.
type STA struct {
	m      Model
	g      graph
	drives [][]int         // per cell: the nets it drives, in net-index order
	ffs    []int           // flip-flop cell IDs, in cell-ID order
	rows   chunked[[]Pair] // per cell ID: the pairs that flip-flop launches
	work   Work
}

// Work describes the pass that produced an STA value.
type Work struct {
	Sources int  // flip-flop sources the kernel ran for
	Reused  int  // rows kept unchanged from the previous cache
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
	}
	rows := make([][]Pair, n)
	s.run(newScratch(n), s.ffs, func(src int, row []Pair) { rows[src] = row })
	s.rows = chunk(rows)
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

// FlipFlops returns the flip-flop cell IDs of the analyzed circuit, in
// cell-ID order: the sources the rows belong to. The slice is shared with
// every cache derived from s and must not be written.
func (s *STA) FlipFlops() []int { return s.ffs }

// Pairs appends the rows to dst in flip-flop ID order and maps them onto
// schedule indices through the dense index ffIdx (FFIndex), exactly as
// SeqPairs does for a full analysis. A caller that analyzes edit after edit
// passes the previous result's storage as dst[:0].
func (s *STA) Pairs(dst []skew.SeqPair, ffIdx []int) ([]skew.SeqPair, error) {
	total := 0
	for _, f := range s.ffs {
		total += len(s.rows.at(f))
	}
	out := slices.Grow(dst, total)
	var err error
	for _, f := range s.ffs {
		if out, err = appendSeqPairs(out, s.rows.at(f), ffIdx); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Workspace is the working memory of STA.Update: the per-source kernel's
// per-cell arrays, the in-degrees and queue of the re-level, and the
// lists of the backward walk. Update writes every entry it reads first,
// and its marks are kernel stamps of an epoch that only grows, so nothing
// an earlier Update left behind is read. No STA holds any part of it. The
// zero value is ready; a Workspace serves one Update at a time.
type Workspace struct {
	kernel                                *scratch
	indeg, queue                          []int32
	changed, drivers, seeds, dirty, stack []int
}

// scratch returns w's kernel scratch, grown to n cells.
func (w *Workspace) scratch(n int) *scratch {
	if w.kernel == nil || len(w.kernel.stamp) < n {
		w.kernel = newScratch(n)
	}
	return w.kernel
}

// run re-propagates the given sources on s's graph with the kernel scratch
// k and hands each one's row to put.
func (s *STA) run(k *scratch, srcs []int, put func(src int, row []Pair)) {
	var row []Pair
	capture := func(_ *cone, src, v int, dMax, dMin float64) {
		row = append(row, Pair{From: src, To: v, DMax: dMax, DMin: dMin})
	}
	for _, src := range srcs {
		row = nil
		s.g.source(k, src, capture)
		put(src, row)
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
// on a combinational cycle. w lends the pass its working memory (nil: a
// fresh one); the result does not depend on it.
//
// The changed nets are the scope nets plus the nets touching a scope cell
// (its Fanin nets and the nets it drives). Their drivers' arcs are rebuilt
// with the one per-net builder. Every cell whose arc list or kind changed
// seeds a backward walk through Cell.Fanin drivers that continues through
// gates and stops at flip-flops; the flip-flops it reaches, new ones
// included, are the dirty sources, and only they re-run the kernel.
// DESIGN.md section 25 argues why every other row is exact.
func (s *STA) Update(c *netlist.Circuit, cells, nets []int, w *Workspace) (*STA, error) {
	if w == nil {
		w = &Workspace{}
	}
	ns := *s
	changed := w.changed[:0]
	for _, id := range cells {
		if c.Cells[id].Kind != s.g.kind[id] {
			changed = append(changed, id)
		}
	}
	slices.Sort(changed)
	changed = slices.Compact(changed)
	w.changed = changed
	if len(changed) > 0 {
		ns.g.kind = slices.Clone(s.g.kind)
		for _, id := range changed {
			ns.g.kind[id] = c.Cells[id].Kind
		}
		ns.ffs = mergeFFs(s.ffs, changed, ns.g.kind)
	}

	// Rebuild the arcs of every changed net's driver, from every net it
	// drives. The kernel's stamps mark the cells seen, one epoch per walk.
	k := w.scratch(len(s.g.kind))
	k.epoch++
	epoch := k.epoch
	drivers := w.drivers[:0]
	addDriver := func(ni int) {
		if d := c.Nets[ni].Driver(); d >= 0 && k.stamp[d] != epoch {
			k.stamp[d] = epoch
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
	w.drivers = drivers
	k.epoch++
	epoch = k.epoch
	seeds := w.seeds[:0]
	addSeed := func(u int) {
		if k.stamp[u] != epoch {
			k.stamp[u] = epoch
			seeds = append(seeds, u)
		}
	}
	adj := cow[[]edge]{c: s.g.adj}
	for _, u := range drivers {
		var arcs []edge
		for _, ni := range ns.drives[u] {
			arcs = netArcs(arcs, c, s.m, ni)
		}
		if !slices.Equal(arcs, s.g.adj.at(u)) {
			adj.set(u, arcs)
			addSeed(u)
		}
	}
	ns.g.adj = adj.c
	for _, id := range changed {
		addSeed(id)
	}
	w.seeds = seeds
	if len(changed) > 0 || len(nets) > 0 {
		topoIdx, err := topoOrder(ns.g.adj, ns.g.kind, w)
		if err != nil {
			return nil, err
		}
		ns.g.topoIdx = topoIdx
	}

	// Walk backward from the seeds: each seed's fanin drivers, then on
	// through gates, stopping at flip-flops. The flip-flops reached (seeds
	// included) are the dirty sources.
	dirty, stack := w.dirty[:0], w.stack[:0]
	expand := func(u int) {
		for _, ni := range c.Cells[u].Fanin {
			if d := c.Nets[ni].Driver(); d >= 0 && k.stamp[d] != epoch {
				k.stamp[d] = epoch
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
	w.dirty, w.stack = dirty, stack

	rows := cow[[]Pair]{c: s.rows}
	for _, id := range changed {
		if ns.g.kind[id] != netlist.FF {
			rows.set(id, nil)
		}
	}
	// An armed SiteTimingSTAScope silently skips one dirty source, keeping
	// its stale row: the scoping bug the ECO oracle's pair check must catch.
	if len(dirty) > 0 && faultinject.Hook(faultinject.SiteTimingSTAScope) != nil {
		dirty = dirty[1:]
	}
	ns.run(k, dirty, rows.set)
	ns.rows = rows.c
	ns.work = Work{Sources: len(dirty), Reused: len(ns.ffs) - len(dirty)}
	return &ns, nil
}

// mergeFFs returns the flip-flop list ffs after the kind changes of the
// cells in changed (sorted, distinct): each of them is a flip-flop after
// the edit exactly when kind says so. The result is in cell-ID order, like
// ffs, and ffs is not written.
func mergeFFs(ffs, changed []int, kind []netlist.Kind) []int {
	out := make([]int, 0, len(ffs)+len(changed))
	i := 0
	for _, id := range changed {
		for i < len(ffs) && ffs[i] < id {
			out = append(out, ffs[i])
			i++
		}
		if i < len(ffs) && ffs[i] == id {
			i++
		}
		if kind[id] == netlist.FF {
			out = append(out, id)
		}
	}
	return append(out, ffs[i:]...)
}
