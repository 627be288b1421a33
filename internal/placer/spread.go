package placer

import (
	"fmt"
	"math"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/par"
)

// Global runs global placement: an initial quadratic solve followed by
// SpreadIters rounds of FastPlace-style density equalization re-anchored
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
	workers := par.Workers(opt.Parallelism)
	handled, err := s.vcycle(opt, workers)
	if handled || err != nil {
		return err
	}
	// At or below the MLCoarsest floor, or connectivity that refuses to
	// shrink: the flat path below is the whole placement.
	s.obs.Add("placer.ml.fallback", 1)
	return s.globalLoop(opt, workers)
}

// globalLoop is the flat global-placement body shared by the direct path and
// the per-level solves of the multilevel V-cycle: one initial quadratic solve
// followed by opt.SpreadIters equalize+re-solve rounds. opt must already be
// normalized; the caller owns validation, the path choice, and the
// placer.global.calls counter.
func (s *System) globalLoop(opt Options, workers int) error {
	c := s.c
	s.obs = opt.Obs
	ws := wsPool.Get().(*solveWS)
	defer wsPool.Put(ws)
	converged, err := s.solveRound(&opt, nil, 0, workers, ws)
	if err != nil {
		return err
	}

	for iter := 1; iter <= opt.SpreadIters; iter++ {
		targets := equalize(c, opt.bins)
		// Re-solve with anchors toward the shifted positions; the anchor
		// strength ramps so early rounds preserve connectivity structure
		// and late rounds enforce density.
		w := spreadAlpha * float64(iter)
		converged, err = s.solveRound(&opt, targets, w, workers, ws)
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

// Incremental re-places the circuit starting from its current positions,
// holding cells near where they are (stability anchors) while the
// pseudo-nets pull flip-flops toward their rings. This is the stage-6
// incremental placement of the flow; it is "stable" in the paper's sense:
// with no pseudo-nets it reproduces the input placement. Callers that
// re-place the same circuit repeatedly (the flow loop) should hold one
// System and use System.Incremental so the connectivity build is paid once.
func Incremental(c *netlist.Circuit, opt Options) error {
	sys, err := NewSystem(c, opt.Obs)
	if err != nil {
		return err
	}
	return sys.Incremental(opt)
}

// Incremental runs incremental placement on the system's circuit, reusing
// the already-built connectivity for both of its solves.
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
	workers := par.Workers(opt.Parallelism)
	ws := wsPool.Get().(*solveWS)
	defer wsPool.Put(ws)
	converged, err := s.solveRound(&opt, nil, 0, workers, ws)
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
	pulled := map[int]bool{}
	for _, pn := range opt.PseudoNets {
		pulled[pn.Cell] = true
	}
	targets := equalize(c, opt.bins)
	filtered := targets[:0]
	for _, tg := range targets {
		if pulled[tg.Cell] {
			filtered = append(filtered, tg)
		}
	}
	converged, err = s.solveRound(&opt, filtered, 0.1, workers, ws)
	if err != nil {
		return err
	}
	if !converged {
		return fmt.Errorf("placer: incremental placement final solve: %w", ErrNonConverged)
	}
	return nil
}

// equalize computes per-cell spreading targets by FastPlace-style cell
// shifting: the die is overlaid with a bins x bins grid, and within each
// horizontal stripe the x coordinates are remapped through the stripe's
// cumulative utilization (piecewise linear over bin boundaries), flattening
// the stripe's density while preserving cell order; the same is applied to
// y within vertical stripes. The maps are local to a stripe, so clusters
// relax into neighboring bins instead of scattering across the die.
func equalize(c *netlist.Circuit, bins int) []PseudoNet {
	var ids []int
	for _, cell := range c.Cells {
		if !cell.Fixed {
			ids = append(ids, cell.ID)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	xs := shiftAxis(ids, c, bins, true)
	ys := shiftAxis(ids, c, bins, false)
	out := make([]PseudoNet, len(ids))
	for i, id := range ids {
		out[i] = PseudoNet{Cell: id, Target: geom.Pt(xs[id], ys[id]), Weight: 1}
	}
	return out
}

// shiftAxis remaps the primary coordinate of every cell through its
// stripe's cumulative-utilization map. xAxis selects remapping x within
// horizontal stripes (stripes indexed by y). The result is a dense slice
// indexed by cell ID (entries of cells not in ids keep the sentinel NaN):
// a map here would invite nondeterministic ranging, which the parallel
// determinism guarantees forbid.
func shiftAxis(ids []int, c *netlist.Circuit, bins int, xAxis bool) []float64 {
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
	stripes := make([][]int, bins)
	for _, id := range ids {
		s := int((sec(id) - secLo) / secSpan * float64(bins))
		if s < 0 {
			s = 0
		}
		if s >= bins {
			s = bins - 1
		}
		stripes[s] = append(stripes[s], id)
	}

	out := make([]float64, len(c.Cells))
	for i := range out {
		out[i] = math.NaN()
	}
	binW := priSpan / float64(bins)
	// Partial equalization: new = blend*mapped + (1-blend)*old.
	const blend = 0.8
	margin := math.Min(priSpan*0.01, 8.0)
	for _, stripe := range stripes {
		if len(stripe) == 0 {
			continue
		}
		// Utilization per bin along the primary axis (cell areas).
		util := make([]float64, bins)
		for _, id := range stripe {
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
			continue
		}
		newBound := make([]float64, bins+1)
		cum := 0.0
		newBound[0] = priLo + margin
		usable := priSpan - 2*margin
		for k := 0; k < bins; k++ {
			cum += util[k]
			newBound[k+1] = priLo + margin + usable*cum/total
		}
		for _, id := range stripe {
			old := pri(id)
			b := int((old - priLo) / binW)
			if b < 0 {
				b = 0
			}
			if b >= bins {
				b = bins - 1
			}
			frac := (old - (priLo + float64(b)*binW)) / binW
			mapped := newBound[b] + frac*(newBound[b+1]-newBound[b])
			out[id] = blend*mapped + (1-blend)*old
		}
	}
	// Cells whose stripe carried zero utilization keep their position.
	for _, id := range ids {
		if math.IsNaN(out[id]) {
			out[id] = pri(id)
		}
	}
	return out
}
