// Multilevel (mPL-style) global placement: cluster the circuit into a
// hierarchy of coarser circuits, run full global placement on the coarsest —
// where a spread round costs a fraction of a fine-level round — then walk
// back down, interpolating each level's solution onto the next finer circuit
// and refining it with a bounded number of equalize+re-solve rounds. The
// payoff is that every fine-level conjugate-gradient solve starts from an
// interpolated near-solution, so iteration counts stay bounded as the cell
// count grows instead of tracking the flat system's condition number.
//
// Global always enters the V-cycle; its size floor (Options.MLCoarsest) is
// the one place the placer picks between the flat and multilevel paths. At
// or below the floor the V-cycle hands back unhandled and Global runs the
// flat globalLoop unchanged (placer.ml.fallback), so small circuits place
// bit-identically to a direct flat solve. ECO dirty-region solves
// (SolveDirty) and Incremental never enter it, and SolveQP — the oracle's
// reference surface — is untouched. Cancellation is cooperative at every
// level boundary (placer.ml.cancel) on top of the per-CG-iteration checks
// inside each level solve; a stopped or stagnated coarse solve degrades to
// best-effort positions projected down to the real circuit, honoring
// Global's contract.
package placer

import (
	"errors"
	"fmt"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/stop"
)

// mlMaxLevels caps the hierarchy depth; with a healthy shrink ratio the cap
// is unreachable (16 levels at 0.55x covers far beyond MaxGenCells), it only
// guards against a degenerate coarsener looping.
const mlMaxLevels = 16

// mlRefine is the number of equalize+re-solve rounds per level on the way
// back down.
const mlRefine = 2

// mlLevel is one rung of the hierarchy. Level 0 is the real circuit and
// System; deeper levels own a coarse circuit, its freshly built System, and
// the coarsening that links it to the next finer level.
type mlLevel struct {
	sys     *System
	co      *coarsening // nil at level 0
	pseudo  []PseudoNet
	weights []float64
}

// vcycle runs multilevel global placement. It reports handled=false (with no
// circuit writes) when the instance is degenerate for clustering — too small,
// all fixed, or connectivity that refuses to shrink — in which case the
// caller falls back to the flat path. opt must already be normalized.
func (s *System) vcycle(opt Options) (handled bool, err error) {
	// Build the hierarchy bottom-up. Coarsening stops at MLCoarsest movable
	// cells or when a level shrinks by less than 20% — matching saturates on
	// dense cluster connectivity, and levels that barely shrink cost more in
	// coarsening and refinement than they save.
	levels := []*mlLevel{{sys: s, pseudo: opt.PseudoNets, weights: opt.NetWeights}}
	for len(levels) < mlMaxLevels {
		cur := levels[len(levels)-1]
		fineMov := cur.sys.c.NumMovable()
		if fineMov <= opt.MLCoarsest {
			break
		}
		co := coarsen(cur.sys.c)
		if co == nil || co.movable()*5 > fineMov*4 {
			break
		}
		csys, nerr := NewSystem(co.coarse, opt.Obs)
		if nerr != nil {
			return false, nerr
		}
		prev := levels[len(levels)-1]
		levels = append(levels, &mlLevel{
			sys:     csys,
			co:      co,
			pseudo:  co.projectPseudo(prev.pseudo),
			weights: co.projectWeights(prev.weights),
		})
	}
	if len(levels) == 1 {
		return false, nil
	}
	s.obs.Add("placer.ml.vcycles", 1)
	s.obs.Add("placer.ml.levels", int64(len(levels)))

	// Coarsest level: full global placement over the clusters (initial solve
	// plus the configured spreading schedule, at cluster scale).
	top := len(levels) - 1
	if err := s.mlSolveLevel(levels, top, opt, opt.spreadIters); err != nil {
		return true, err
	}

	// Descend: interpolate each solved level onto the next finer circuit and
	// refine with a bounded number of equalize+re-solve rounds. The finest
	// level's result lands on the real circuit through the level-0 System,
	// exactly like a flat Global.
	for l := top - 1; l >= 0; l-- {
		if serr := stop.Check(opt.Stop, faultinject.SitePlacerMLCancel); serr != nil {
			s.mlProjectDown(levels, l+1)
			s.obs.Add("placer.ml.canceled", 1)
			return true, fmt.Errorf("placer: multilevel descent: %w", serr)
		}
		levels[l+1].co.interpolate()
		// Armed SitePlacerMLCorrupt silently wrecks the interpolated start
		// (every movable cell collapses toward the die corner), the
		// wrong-answer failure mode the placer/multilevel oracle must catch:
		// the bounded refinement cannot re-spread a corrupted start, so the
		// damage survives into the final placement quality.
		if faultinject.Hook(faultinject.SitePlacerMLCorrupt) != nil {
			mlCorrupt(levels[l].sys.c)
		}
		// Level l+1 is spent: its positions are projected and the descent
		// never revisits it (a later stop projects down from l or finer).
		// Dropping its System and coarse circuit now keeps the hierarchy's
		// peak live heap off the fine-level solves, which at 512k cells is
		// worth more than a full refinement round.
		levels[l+1] = nil
		if err := s.mlSolveLevel(levels, l, opt, mlRefine); err != nil {
			return true, err
		}
	}
	return true, nil
}

// mlSolveLevel runs one level's placement and translates failures into the
// V-cycle's degradation policy: stop errors project best-effort positions
// down to the real circuit and propagate; a stagnated (ErrNonConverged)
// coarse solve is recorded and absorbed, because its best-effort iterate is
// still a usable starting point for the finer levels, while level-0
// stagnation keeps the flat path's contract and propagates.
//
// The coarsest level runs the full flat schedule (globalLoop: unanchored
// initial solve + spreadIters equalize rounds) at cluster scale, where it is
// cheap. Every finer level runs refineLoop instead: the unanchored initial
// solve is exactly what must NOT run there — its solution is independent of
// the starting iterate, so it would discard the interpolated coarse result
// and degenerate the V-cycle into an expensive flat run.
func (s *System) mlSolveLevel(levels []*mlLevel, l int, opt Options, rounds int) error {
	lv := levels[l]
	lopt := opt
	if l > 0 {
		lopt.bins = 0 // re-derive the grid for this level's movable count
	}
	lopt.PseudoNets = lv.pseudo
	lopt.NetWeights = lv.weights
	lopt.normalize(lv.sys.c.NumMovable())
	var err error
	if l == len(levels)-1 {
		lopt.spreadIters = rounds
		// The coarsest solution is only a starting structure — every finer
		// level re-solves on top of it — so the flat path's tight CG
		// tolerance buys nothing here, it only burns iterations on the
		// ill-conditioned cluster system.
		if lopt.CGTol < 1e-3 {
			lopt.CGTol = 1e-3
		}
		err = lv.sys.globalLoop(lopt)
	} else {
		err = lv.sys.refineLoop(lopt, rounds)
	}
	if err == nil {
		return nil
	}
	if stop.IsStop(err) {
		s.mlProjectDown(levels, l)
		s.obs.Add("placer.ml.canceled", 1)
		return err
	}
	if errors.Is(err, ErrNonConverged) && l > 0 {
		s.obs.Add("placer.ml.stagnated", 1)
		return nil
	}
	if l > 0 && !errors.Is(err, ErrNonConverged) {
		return fmt.Errorf("placer: multilevel level %d: %w", l, err)
	}
	return err
}

// refineLoop is the per-level refinement of the V-cycle descent: rounds of
// density equalization re-anchored into the quadratic system, with the anchor
// weight ramping up to the flat schedule's final strength
// (spreadAlpha*spreadIters). Anchors are present from the first solve — the
// interpolated coarse placement, not a fresh unanchored QP solution, is the
// structure being refined — which also keeps every CG solve strongly
// diagonally dominant and therefore cheap. opt must already be normalized.
func (s *System) refineLoop(opt Options, rounds int) error {
	c := s.c
	s.obs = opt.Obs
	ws := wsPool.Get().(*solveWS)
	defer wsPool.Put(ws)
	final := spreadAlpha * float64(opt.spreadIters)
	converged := true
	for iter := 1; iter <= rounds; iter++ {
		targets := equalize(c, opt.bins, &ws.spread)
		w := final * float64(iter) / float64(rounds)
		var err error
		converged, err = s.solveRound(&opt, targets, w, ws)
		if err != nil {
			return err
		}
	}
	if !converged {
		return fmt.Errorf("placer: multilevel refinement final solve: %w", ErrNonConverged)
	}
	return nil
}

// mlProjectDown interpolates positions from level l all the way onto the real
// circuit, so a run stopped mid-hierarchy still leaves the best-effort
// placement where Global's contract promises it.
func (s *System) mlProjectDown(levels []*mlLevel, l int) {
	for m := l; m >= 1; m-- {
		levels[m].co.interpolate()
	}
}

// mlCorrupt is the fault-injection payload of SitePlacerMLCorrupt: it
// collapses every movable cell into a sliver at the die's low corner,
// deterministically jittered so the quadratic system stays solvable but the
// interpolated start — and with it the bounded refinement's outcome — is
// garbage. The damage shows up as blown-up legalized wirelength, which is
// what oracle.CheckMultilevel bounds.
func mlCorrupt(c *netlist.Circuit) {
	lo := c.Die.Lo
	i := 0
	for _, cell := range c.Cells {
		if cell.Fixed {
			continue
		}
		cell.Pos = geom.Pt(lo.X+float64(i%7)*1e-3, lo.Y+float64(i%11)*1e-3)
		i++
	}
}
