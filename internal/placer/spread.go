package placer

import (
	"fmt"
	"math"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
)

// Global runs global placement: an initial quadratic solve followed by
// spreadIters rounds of FastPlace-style density equalization re-anchored
// into the quadratic system, leaving cells spread over the die with low
// quadratic wirelength. Circuits with more than Options.MLCoarsest movable
// cells run that schedule on a clustered hierarchy instead (the multilevel
// V-cycle, vcycle.go). Positions are written onto the circuit. The
// quadratic system is assembled once and reused across every round; callers
// that already hold a System for the circuit should use System.Global.
func Global(c *netlist.Circuit, opt Options) error {
	sys, err := NewSystem(c, opt.Obs)
	if err != nil {
		return err
	}
	return sys.Global(opt)
}

// Global runs global placement on the system's circuit, reusing the
// already-built connectivity for the initial solve and every spread round.
func (s *System) Global(opt Options) error {
	if err := faultinject.Hook(faultinject.SitePlacerGlobal); err != nil {
		return err
	}
	c := s.c
	if err := validate(c); err != nil {
		return err
	}
	opt.normalize(c.NumMovable())
	if c.NumMovable() == 0 {
		return nil
	}
	s.obs = opt.Obs
	s.obs.Add("placer.global.calls", 1)
	handled, err := s.vcycle(opt)
	if handled || err != nil {
		return err
	}
	// At or below the MLCoarsest floor, or connectivity that refuses to
	// shrink: the flat path below is the whole placement.
	s.obs.Add("placer.ml.fallback", 1)
	return s.globalLoop(opt)
}

// globalLoop is the flat global-placement body shared by the direct path and
// the per-level solves of the multilevel V-cycle: one initial quadratic solve
// followed by opt.spreadIters equalize+re-solve rounds. opt must already be
// normalized; the caller owns validation, the path choice, and the
// placer.global.calls counter.
func (s *System) globalLoop(opt Options) error {
	c := s.c
	s.obs = opt.Obs
	ws := wsPool.Get().(*solveWS)
	defer wsPool.Put(ws)
	converged, err := s.solveRound(&opt, nil, 0, ws)
	if err != nil {
		return err
	}

	for iter := 1; iter <= opt.spreadIters; iter++ {
		targets := equalize(c, opt.bins, &ws.spread)
		// Re-solve with anchors toward the shifted positions; the anchor
		// strength ramps so early rounds preserve connectivity structure
		// and late rounds enforce density.
		w := spreadAlpha * float64(iter)
		converged, err = s.solveRound(&opt, targets, w, ws)
		if err != nil {
			return err
		}
	}
	if !converged {
		// Positions are already written back (best effort); the caller
		// decides whether to retry with a looser tolerance or keep them.
		return fmt.Errorf("placer: global placement final solve: %w", ErrNonConverged)
	}
	return nil
}

// Incremental re-places the system's circuit starting from its current
// positions, holding cells near where they are (stability anchors) while
// the pseudo-nets pull flip-flops toward their rings. This is the stage-6
// incremental placement of the flow; it is "stable" in the paper's sense:
// with no pseudo-nets it reproduces the input placement. Both of its solves
// reuse the system's connectivity, so a caller that re-places the same
// circuit repeatedly (the flow loop) pays the build once.
func (s *System) Incremental(opt Options) error {
	if err := faultinject.Hook(faultinject.SitePlacerIncremental); err != nil {
		return err
	}
	c := s.c
	if err := validate(c); err != nil {
		return err
	}
	opt.normalize(c.NumMovable())
	if c.NumMovable() == 0 {
		return nil
	}
	opt.anchorWeight = stabilityAnchor
	s.obs = opt.Obs
	s.obs.Add("placer.incremental.calls", 1)
	ws := wsPool.Get().(*solveWS)
	defer wsPool.Put(ws)
	converged, err := s.solveRound(&opt, nil, 0, ws)
	if err != nil {
		return err
	}
	if len(opt.PseudoNets) == 0 {
		if !converged {
			return fmt.Errorf("placer: incremental placement solve: %w", ErrNonConverged)
		}
		return nil // pure stability re-solve; nothing piled up
	}
	// One light equalization pass keeps pseudo-net pile-ups legalizable.
	// Only the pulled cells (the pseudo-net targets, i.e. the flip-flops)
	// get equalization anchors: the rest of the placement should stay put,
	// which is what bounds the signal-wirelength penalty per iteration.
	filtered := ws.spread.pulledTargets(c, opt.bins, opt.PseudoNets)
	converged, err = s.solveRound(&opt, filtered, 0.1, ws)
	if err != nil {
		return err
	}
	if !converged {
		return fmt.Errorf("placer: incremental placement final solve: %w", ErrNonConverged)
	}
	return nil
}

// spreadWS holds the buffers of the density-equalization passes, reused by
// every round of a Global, refineLoop or Incremental call. Every buffer but
// pulled is rewritten before it is read; pulled is all false between
// calls.
type spreadWS struct {
	ids     []int       // movable cell IDs, in cell order
	targets []PseudoNet // one per ids entry
	coord   []float64   // per ids entry: the remapped coordinate of the pass
	stripe  []int32     // per ids entry: its stripe
	start   []int       // stripe s holds order[start[s]:start[s+1]]
	order   []int32     // ids indices, stably sorted by stripe
	util    []float64   // per bin of the stripe in hand
	bound   []float64   // new bin boundaries of the stripe in hand
	pulled  []bool      // by cell ID: Incremental's pseudo-net cells
}

// grow returns buf resized to n, reallocating only when its capacity is
// short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// pulledTargets is equalize's targets of the cells the pseudo-nets pull,
// in cell order. The marks it sets in ws.pulled are cleared again before it
// returns.
func (ws *spreadWS) pulledTargets(c *netlist.Circuit, bins int, pns []PseudoNet) []PseudoNet {
	pulled := grow(ws.pulled, len(c.Cells))
	ws.pulled = pulled
	for _, pn := range pns {
		if pn.Cell >= 0 && pn.Cell < len(pulled) {
			pulled[pn.Cell] = true
		}
	}
	targets := equalize(c, bins, ws)
	filtered := targets[:0]
	for _, tg := range targets {
		if pulled[tg.Cell] {
			filtered = append(filtered, tg)
		}
	}
	for _, pn := range pns {
		if pn.Cell >= 0 && pn.Cell < len(pulled) {
			pulled[pn.Cell] = false
		}
	}
	return filtered
}

// equalize computes per-cell spreading targets by FastPlace-style cell
// shifting: the die is overlaid with a bins x bins grid, and within each
// horizontal stripe the x coordinates are remapped through the stripe's
// cumulative utilization (piecewise linear over bin boundaries), flattening
// the stripe's density while preserving cell order; the same is applied to
// y within vertical stripes. The maps are local to a stripe, so clusters
// relax into neighboring bins instead of scattering across the die. The
// targets live in ws and stay valid until its next pass.
func equalize(c *netlist.Circuit, bins int, ws *spreadWS) []PseudoNet {
	ids := ws.ids[:0]
	for _, cell := range c.Cells {
		if !cell.Fixed {
			ids = append(ids, cell.ID)
		}
	}
	ws.ids = ids
	if len(ids) == 0 {
		return nil
	}
	ws.targets = grow(ws.targets, len(ids))
	ws.coord = grow(ws.coord, len(ids))
	shiftAxis(ws, c, bins, true)
	for i, id := range ids {
		ws.targets[i] = PseudoNet{Cell: id, Target: geom.Pt(ws.coord[i], 0), Weight: 1}
	}
	shiftAxis(ws, c, bins, false)
	for i := range ids {
		ws.targets[i].Target.Y = ws.coord[i]
	}
	return ws.targets
}

// shiftAxis remaps the primary coordinate of every cell of ws.ids through
// its stripe's cumulative-utilization map into ws.coord. xAxis selects
// remapping x within horizontal stripes (stripes indexed by y). A stable
// counting sort buckets the cells, so each stripe lists its cells in cell
// order.
func shiftAxis(ws *spreadWS, c *netlist.Circuit, bins int, xAxis bool) {
	die := c.Die
	priLo, priHi := die.Lo.X, die.Hi.X
	secLo, secHi := die.Lo.Y, die.Hi.Y
	if !xAxis {
		priLo, priHi = die.Lo.Y, die.Hi.Y
		secLo, secHi = die.Lo.X, die.Hi.X
	}
	priSpan, secSpan := priHi-priLo, secHi-secLo
	pri := func(id int) float64 {
		if xAxis {
			return c.Cells[id].Pos.X
		}
		return c.Cells[id].Pos.Y
	}
	sec := func(id int) float64 {
		if xAxis {
			return c.Cells[id].Pos.Y
		}
		return c.Cells[id].Pos.X
	}

	// Bucket cells into stripes along the secondary axis.
	ids := ws.ids
	ws.stripe = grow(ws.stripe, len(ids))
	ws.start = grow(ws.start, bins+1)
	clear(ws.start)
	for i, id := range ids {
		s := int((sec(id) - secLo) / secSpan * float64(bins))
		if s < 0 {
			s = 0
		}
		if s >= bins {
			s = bins - 1
		}
		ws.stripe[i] = int32(s)
		ws.start[s+1]++
	}
	for s := 0; s < bins; s++ {
		ws.start[s+1] += ws.start[s]
	}
	ws.order = grow(ws.order, len(ids))
	for i := range ids {
		s := ws.stripe[i]
		ws.order[ws.start[s]] = int32(i)
		ws.start[s]++
	}
	// The placement pass advanced each start to its stripe's end; shift
	// them back.
	copy(ws.start[1:], ws.start[:bins])
	ws.start[0] = 0

	binW := priSpan / float64(bins)
	// Partial equalization: new = blend*mapped + (1-blend)*old.
	const blend = 0.8
	margin := math.Min(priSpan*0.01, 8.0)
	util := grow(ws.util, bins)
	newBound := grow(ws.bound, bins+1)
	ws.util, ws.bound = util, newBound
	for s := 0; s < bins; s++ {
		stripe := ws.order[ws.start[s]:ws.start[s+1]]
		if len(stripe) == 0 {
			continue
		}
		// Utilization per bin along the primary axis (cell areas).
		clear(util)
		for _, i := range stripe {
			id := ids[i]
			b := int((pri(id) - priLo) / binW)
			if b < 0 {
				b = 0
			}
			if b >= bins {
				b = bins - 1
			}
			util[b] += c.Cells[id].W * c.Cells[id].H
		}
		// Cumulative map: old bin boundary k maps to a new position
		// proportional to the cumulative utilization, blended with the
		// identity so one round only partially flattens the stripe.
		total := 0.0
		for _, u := range util {
			total += u
		}
		if total == 0 {
			// A stripe carrying zero utilization keeps its cells in place.
			for _, i := range stripe {
				ws.coord[i] = pri(ids[i])
			}
			continue
		}
		cum := 0.0
		newBound[0] = priLo + margin
		usable := priSpan - 2*margin
		for k := 0; k < bins; k++ {
			cum += util[k]
			newBound[k+1] = priLo + margin + usable*cum/total
		}
		for _, i := range stripe {
			old := pri(ids[i])
			b := int((old - priLo) / binW)
			if b < 0 {
				b = 0
			}
			if b >= bins {
				b = bins - 1
			}
			frac := (old - (priLo + float64(b)*binW)) / binW
			mapped := newBound[b] + frac*(newBound[b+1]-newBound[b])
			v := blend*mapped + (1-blend)*old
			if math.IsNaN(v) {
				v = old // no usable map: the cell keeps its position
			}
			ws.coord[i] = v
		}
	}
}
