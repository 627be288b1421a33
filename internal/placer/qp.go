// Package placer is the analytical placement substrate of the flow: a
// star-model quadratic placer solved by preconditioned conjugate gradients,
// a density-equalization spreading loop, a Tetris-style row legalizer, and a
// stable incremental mode driven by pseudo-nets.
//
// It stands in for the mPL placer the paper uses: the integrated methodology
// (Fig. 3) only needs a global placer that minimizes quadratic wirelength,
// accepts pseudo-nets pulling flip-flops toward their rotary rings, and is
// stable under small netlist perturbations — all of which this package
// provides.
//
// The quadratic system is split FastPlace-style into an immutable
// connectivity part (a flat CSR Laplacian plus the base diagonal and
// right-hand sides contributed by fixed cells, assembled once per circuit by
// NewSystem) and a mutable anchor overlay (pseudo-nets, stability anchors,
// spread targets, disconnected-node regularization) that is reset and
// reapplied per re-solve. Callers that re-solve the same netlist repeatedly
// (the spread loop, the flow's stage-6 iterations) hold one System and pay
// only the overlay cost per solve; see DESIGN.md section 10 for the
// bit-identity argument.
//
// Error discipline: invalid circuits (empty die) return errors, and a
// conjugate-gradient solve that exhausts its iteration budget with the
// residual still above tolerance returns an error wrapping ErrNonConverged —
// best-effort positions are written to the circuit first, so callers may
// either accept them or retry with a looser CGTol. The package never panics
// on caller input.
package placer

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/par"
	"rotaryclk/internal/stop"
)

// ErrNonConverged reports that the final quadratic solve stopped on its
// iteration budget (or a numerical breakdown) with the residual still above
// CGTol. The circuit holds the best-effort positions reached; callers match
// this with errors.Is to retry with a looser tolerance or accept the result.
var ErrNonConverged = errors.New("placer: conjugate gradients did not converge")

// PseudoNet pulls one cell toward a fixed target point with the given
// weight. The flow inserts one per flip-flop, anchored at its assigned
// ring's tapping point (Section IV stage 5).
type PseudoNet struct {
	Cell   int
	Target geom.Point
	Weight float64
}

// Options tunes the placer.
type Options struct {
	// SpreadIters is the number of density-equalization + re-solve rounds
	// of global placement (default 24, locked by TestOptionsDefaults).
	SpreadIters int
	// PseudoNets are the flip-flop anchor nets.
	PseudoNets []PseudoNet
	// NetWeights, when non-empty, scales every term net i contributes to the
	// quadratic system (edge weights, star weights, fixed-pin anchors) by
	// NetWeights[i] — the timing-driven criticality overlay. Indices beyond
	// the slice scale at 1. Empty/nil uses the immutable base weights
	// untouched; a vector of all-1.0 is bit-identical to that path (the
	// contract TestNetWeightIdentity locks).
	NetWeights []float64
	// CGTol is the linear solver's relative residual tolerance (default
	// 1e-6); each solve stops after cgMaxIter iterations either way.
	CGTol float64
	// Parallelism bounds the worker count of the CG kernels and the
	// concurrent x/y-axis solves: 0 = GOMAXPROCS, 1 = serial (no
	// goroutines). Results are bit-identical for every value — chunk
	// boundaries and reduction order are fixed (see internal/par).
	Parallelism int
	// Obs receives solver telemetry (CG solves/iterations counters, exit
	// residual gauge, system build/reuse counters). Nil records nothing.
	Obs *obs.Registry
	// Stop is the cooperative cancellation token, checked once per CG
	// iteration. Nil never stops. A fired token aborts the solve with an
	// error wrapping the stop sentinel after writing the best-effort iterate
	// back to the circuit (same state contract as ErrNonConverged).
	Stop *stop.Token

	// MLCoarsest is the coarsening floor of Global (default 2500): a
	// circuit with at most this many movable cells is placed flat, a larger
	// one runs the mPL-style V-cycle (see vcycle.go), which clusters it
	// down to this size, places the coarsest level with the full spreading
	// schedule, and interpolates back with mlRefine bounded rounds per
	// level. The placer.ml.vcycles, placer.ml.levels and placer.ml.fallback
	// counters say which path ran; fallback counts every flat Global, the
	// normal outcome below the floor. Incremental and ECO dirty-region
	// solves never enter the V-cycle.
	MLCoarsest int

	// bins is the spreading grid resolution per axis, derived from the
	// movable cell count by normalize (each V-cycle level re-derives it).
	bins int
	// anchorWeight, when positive, adds a stability anchor from every
	// movable cell to its current position (Incremental sets
	// stabilityAnchor).
	anchorWeight float64
	// rebuildEachSolve (test-only) assembles a fresh System before every
	// re-solve, reproducing the pre-reuse rebuild-every-time path so tests
	// can assert the two paths are bit-identical.
	rebuildEachSolve bool
}

// Fixed solver constants. spreadAlpha scales the spreading anchor weight
// per round (larger converges faster but hurts wirelength); cgMaxIter caps
// every CG solve, the flow's and the dirty-region ones alike;
// stabilityAnchor is the weight holding cells at their current positions
// in Incremental and SolveDirty.
const (
	spreadAlpha     = 0.05
	cgMaxIter       = 600
	stabilityAnchor = 6.0
)

func (o *Options) normalize(movable int) {
	if o.SpreadIters <= 0 {
		o.SpreadIters = 24
	}
	if o.bins <= 0 {
		o.bins = int(math.Max(4, math.Sqrt(float64(movable)/4)))
	}
	if o.CGTol <= 0 {
		o.CGTol = 1e-6
	}
	if o.MLCoarsest <= 0 {
		o.MLCoarsest = 2500
	}
}

// System is the reusable sparse SPD system of a circuit's quadratic
// placement. The connectivity part — the CSR Laplacian off-diagonal
// (rowStart/cols/w) and the base diagonal and right-hand sides contributed
// by net edges and fixed-cell anchors — is assembled once from the netlist
// and never mutated; every re-solve resets the working diag/bx/by from it
// and reapplies the per-solve anchor overlay. The x and y dimensions share
// the structure but have separate right-hand sides.
//
// A System stays valid as long as the circuit's connectivity (cells, nets,
// Fixed flags, fixed-cell positions, die) is unchanged; cell position
// updates are picked up at the next solve. It is not safe for concurrent
// use.
type System struct {
	c    *netlist.Circuit
	n    int // unknowns: movable cells + star nodes
	nMov int

	// Immutable connectivity, built once by NewSystem.
	rowStart []int32   // CSR row offsets, len n+1
	cols     []int32   // neighbor indices, row-major
	w        []float64 // neighbor weights, parallel to cols
	baseDiag []float64
	baseBx   []float64
	baseBy   []float64
	starRow  []int32 // star index -> offset into starPin, len nStar+1
	starPin  []int32 // pin cell IDs per star net, in net order
	cells    []int   // unknown index -> cell ID (star nodes: -1)
	idx      map[int]int

	// Mutable per-solve state, reset by prepare.
	diag []float64
	bx   []float64
	by   []float64
	posX []float64
	posY []float64

	// Net-weight overlay (Options.NetWeights). wcur is the weight array the
	// CG kernel reads: s.w on the untouched path, wScaled (a lazily
	// allocated scratch refilled by applyNetWeights) when a scale vector is
	// in effect. rowNext is the overlay fill's per-row cursor scratch.
	wcur    []float64
	wScaled []float64
	rowNext []int32

	obs *obs.Registry // resolved per call; nil when disarmed
}

// anchor accumulates one overlay anchor term into the working system.
func (s *System) anchor(i int, p geom.Point, w float64) {
	s.diag[i] += w
	s.bx[i] += w * p.X
	s.by[i] += w * p.Y
}

// NewSystem assembles the immutable connectivity part of the circuit's
// quadratic system: movable cells come first, then one star node per net
// with 3+ pins. The registry (nil records nothing) receives the
// placer.system.builds counter.
func NewSystem(c *netlist.Circuit, reg *obs.Registry) (*System, error) {
	if err := validate(c); err != nil {
		return nil, err
	}
	idx := map[int]int{} // cell ID -> unknown index
	var cells []int
	for _, cell := range c.Cells {
		if !cell.Fixed {
			idx[cell.ID] = len(cells)
			cells = append(cells, cell.ID)
		}
	}
	nMov := len(cells)
	// Count star nodes and their pins.
	nStar, nStarPin := 0, 0
	for _, n := range c.Nets {
		if len(n.Pins) >= 3 {
			nStar++
			nStarPin += len(n.Pins)
		}
	}
	n := nMov + nStar
	s := &System{
		c:        c,
		n:        n,
		nMov:     nMov,
		baseDiag: make([]float64, n),
		baseBx:   make([]float64, n),
		baseBy:   make([]float64, n),
		starRow:  make([]int32, nStar+1),
		starPin:  make([]int32, 0, nStarPin),
		cells:    make([]int, n),
		idx:      idx,
		diag:     make([]float64, n),
		bx:       make([]float64, n),
		by:       make([]float64, n),
		posX:     make([]float64, n),
		posY:     make([]float64, n),
		obs:      reg,
	}
	for i := range s.cells {
		s.cells[i] = -1
	}
	copy(s.cells, cells)

	// Counting pass: per-row adjacency degrees (each edge contributes one
	// entry to both endpoint rows) and the pin list of every star net, so
	// prepare can re-seed each star at its pins' current centroid.
	deg := make([]int32, n+1)
	star := nMov
	for _, net := range c.Nets {
		k := len(net.Pins)
		if k < 2 {
			continue
		}
		if k == 2 {
			ia, aOK := idx[net.Pins[0]]
			ib, bOK := idx[net.Pins[1]]
			if aOK && bOK {
				deg[ia]++
				deg[ib]++
			}
			continue
		}
		for _, pid := range net.Pins {
			s.starPin = append(s.starPin, int32(pid))
			if ip, ok := idx[pid]; ok {
				deg[ip]++
				deg[star]++
			}
		}
		star++
		s.starRow[star-nMov] = int32(len(s.starPin))
	}
	s.rowStart = make([]int32, n+1)
	for i := 0; i < n; i++ {
		s.rowStart[i+1] = s.rowStart[i] + deg[i]
	}
	total := int(s.rowStart[n])
	s.cols = make([]int32, total)
	s.w = make([]float64, total)
	s.wcur = s.w
	s.fill(nil, s.cols, s.w, s.baseDiag, s.baseBx, s.baseBy, make([]int32, n))
	s.obs.Add("placer.system.builds", 1)
	return s, nil
}

// Circuit returns the circuit this system solves for (the one it was built
// from, or the one it was forked onto).
func (s *System) Circuit() *netlist.Circuit { return s.c }

// Fork returns a System bound to circuit c that shares this System's
// immutable connectivity arrays (CSR Laplacian, base diagonal and right-hand
// sides, star pin lists) but carries fresh mutable per-solve state, so the
// fork and the original can solve concurrently on different goroutines.
//
// Caller contract: c must have connectivity identical to the template's
// circuit — same cells in the same order with the same Fixed flags and
// fixed-cell positions, and the same nets. The serving layer guarantees this
// by keying templates on the full generator spec (deterministic generation:
// same spec, same circuit); Fork itself only performs cheap structural
// checks and returns an error on an obvious mismatch.
//
// reg rebinds the fork's telemetry to its own registry — a serving layer
// gives each job a private one so concurrent jobs never share counters — and
// nil inherits the template's.
func (s *System) Fork(c *netlist.Circuit, reg *obs.Registry) (*System, error) {
	if err := validate(c); err != nil {
		return nil, err
	}
	if len(c.Cells) != len(s.c.Cells) || len(c.Nets) != len(s.c.Nets) {
		return nil, fmt.Errorf("placer: fork: circuit %q (%d cells, %d nets) does not match template %q (%d cells, %d nets)",
			c.Name, len(c.Cells), len(c.Nets), s.c.Name, len(s.c.Cells), len(s.c.Nets))
	}
	ns := &System{
		c:        c,
		n:        s.n,
		nMov:     s.nMov,
		rowStart: s.rowStart,
		cols:     s.cols,
		w:        s.w,
		baseDiag: s.baseDiag,
		baseBx:   s.baseBx,
		baseBy:   s.baseBy,
		starRow:  s.starRow,
		starPin:  s.starPin,
		cells:    s.cells,
		idx:      s.idx,
		diag:     make([]float64, s.n),
		bx:       make([]float64, s.n),
		by:       make([]float64, s.n),
		posX:     make([]float64, s.n),
		posY:     make([]float64, s.n),
		obs:      s.obs,
	}
	ns.wcur = ns.w
	if reg != nil {
		ns.obs = reg
	}
	ns.obs.Add("placer.system.forks", 1)
	return ns, nil
}

// prepare resets the working system to the immutable base and reapplies the
// per-solve anchor overlay in the same accumulation order the historical
// per-solve build used: positions and star seeds from the circuit, then
// opt.PseudoNets, then extra pseudo-nets at extraScale times their weight,
// then stability anchors, then the disconnected-node regularization.
//
// With opt.NetWeights set, the reset step reruns the build's fill with each
// net's terms scaled instead of copying the base arrays; the immutable CSR is
// never mutated either way.
func (s *System) prepare(opt *Options, extra []PseudoNet, extraScale float64) {
	s.obs.Add("placer.system.reuses", 1)
	if len(opt.NetWeights) > 0 {
		s.applyNetWeights(opt.NetWeights)
	} else {
		s.wcur = s.w
		copy(s.diag, s.baseDiag)
		copy(s.bx, s.baseBx)
		copy(s.by, s.baseBy)
	}
	c := s.c
	for i := 0; i < s.nMov; i++ {
		pos := c.Cells[s.cells[i]].Pos
		s.posX[i] = pos.X
		s.posY[i] = pos.Y
	}
	for i := s.nMov; i < s.n; i++ {
		s.posX[i], s.posY[i] = s.starSeed(i)
	}

	// Pseudo-nets and stability anchors.
	for _, pn := range opt.PseudoNets {
		if i, ok := s.idx[pn.Cell]; ok && pn.Weight > 0 {
			s.anchor(i, pn.Target, pn.Weight)
		}
	}
	for _, pn := range extra {
		if i, ok := s.idx[pn.Cell]; ok {
			if w := pn.Weight * extraScale; w > 0 {
				s.anchor(i, pn.Target, w)
			}
		}
	}
	if opt.anchorWeight > 0 {
		for i := 0; i < s.nMov; i++ {
			s.anchor(i, c.Cells[s.cells[i]].Pos, opt.anchorWeight)
		}
	}
	// Regularize fully disconnected unknowns toward the die center so the
	// system stays positive definite.
	center := c.Die.Center()
	for i := 0; i < s.n; i++ {
		if s.diag[i] == 0 {
			s.anchor(i, center, 1e-3)
		}
	}
}

// starSeed returns the warm-start position of star node i (an unknown
// index >= nMov): the current centroid of the star net's pins.
func (s *System) starSeed(i int) (x, y float64) {
	st := i - s.nMov
	lo, hi := s.starRow[st], s.starRow[st+1]
	for _, pid := range s.starPin[lo:hi] {
		pos := s.c.Cells[pid].Pos
		x += pos.X
		y += pos.Y
	}
	k := float64(hi - lo)
	return x / k, y / k
}

// applyNetWeights rebuilds the working diag/bx/by and the scaled weight
// array with the build's fill, every term of net i multiplied by scale[i]
// (out-of-range indices scale at 1). A scale vector of all-1.0 therefore
// reproduces the base arrays bit-for-bit (w * 1.0 == w in IEEE 754) and the
// untouched path's positions exactly.
func (s *System) applyNetWeights(scale []float64) {
	s.obs.Add("placer.system.reweights", 1)
	if s.wScaled == nil {
		s.wScaled = make([]float64, len(s.w))
		s.rowNext = make([]int32, s.n)
	}
	s.wcur = s.wScaled
	for i := 0; i < s.n; i++ {
		s.diag[i], s.bx[i], s.by[i] = 0, 0, 0
	}
	// Armed SitePlacerReweight silently perturbs every scale, breaking the
	// all-ones bit-identity contract — the wrong-answer failure mode the
	// core/timing-identity oracle must catch.
	perturb := 0.0
	if faultinject.Hook(faultinject.SitePlacerReweight) != nil {
		perturb = 1e-3
	}
	s.fill(func(ni int) float64 {
		if ni < len(scale) {
			return scale[ni] + perturb
		}
		return 1 + perturb
	}, nil, s.wScaled, s.diag, s.bx, s.by, s.rowNext)
}

// fill is the one net walk that accumulates the quadratic system's
// connectivity terms, in net order: each 2-pin net is an edge of weight 1
// and each k-pin net (k >= 3) connects every pin to its star node with
// weight k/(k-1)/2; an edge adds its weight to both endpoints' diag and to
// w at both CSR slots, and a fixed pin anchors the other endpoint in
// diag/bx/by. Every term of net i is multiplied by scale(i), and a nil
// scale multiplies by 1, which leaves each term bit-unchanged. diag, bx and
// by must be zero on entry; next is an n-length cursor scratch. cols
// receives each slot's neighbor index when non-nil — only the build passes
// it, so the overlay writes nothing a Fork shares. The traversal fixes
// per-row neighbor order and the accumulation order of every sum, which is
// the bit-identity contract of DESIGN.md section 10.
func (s *System) fill(scale func(net int) float64, cols []int32, w, diag, bx, by []float64, next []int32) {
	copy(next, s.rowStart[:s.n])
	addEdge := func(i, j int, wt float64) {
		diag[i] += wt
		diag[j] += wt
		if cols != nil {
			cols[next[i]] = int32(j)
			cols[next[j]] = int32(i)
		}
		w[next[i]] = wt
		next[i]++
		w[next[j]] = wt
		next[j]++
	}
	addAnchor := func(i int, p geom.Point, wt float64) {
		diag[i] += wt
		bx[i] += wt * p.X
		by[i] += wt * p.Y
	}
	c := s.c
	star := s.nMov
	for ni, net := range c.Nets {
		k := len(net.Pins)
		if k < 2 {
			continue
		}
		f := 1.0
		if scale != nil {
			f = scale(ni)
		}
		if k == 2 {
			a, b := net.Pins[0], net.Pins[1]
			ia, aOK := s.idx[a]
			ib, bOK := s.idx[b]
			switch {
			case aOK && bOK:
				addEdge(ia, ib, 1*f)
			case aOK:
				addAnchor(ia, c.Cells[b].Pos, 1*f)
			case bOK:
				addAnchor(ib, c.Cells[a].Pos, 1*f)
			}
			continue
		}
		wt := float64(k) / float64(k-1) / 2 * f
		for _, pid := range net.Pins {
			if ip, ok := s.idx[pid]; ok {
				addEdge(ip, star, wt)
			} else {
				addAnchor(star, c.Cells[pid].Pos, wt)
			}
		}
		star++
	}
}

// solveRound runs one prepare+solve+writeBack round and reports convergence.
// Under opt.rebuildEachSolve (test-only) it assembles a fresh System first,
// reproducing the historical rebuild-every-time path.
func (s *System) solveRound(opt *Options, extra []PseudoNet, extraScale float64, workers int, ws *solveWS) (bool, error) {
	sys := s
	if opt.rebuildEachSolve {
		fresh, err := NewSystem(s.c, opt.Obs)
		if err != nil {
			return false, err
		}
		sys = fresh
	}
	sys.prepare(opt, extra, extraScale)
	converged, serr := sys.solve(opt.CGTol, cgMaxIter, workers, ws, opt.Stop)
	// Best-effort positions reach the circuit even on cancellation, so the
	// caller's snapshot/degrade path always sees a consistent placement.
	sys.writeBack(s.c)
	return converged, serr
}

// Kernel grains: chunk sizes of the parallel CG primitives. They are fixed
// constants (never derived from the worker count) so that the floating-point
// reduction order — and therefore every solved position — is bit-identical
// no matter how many workers run the chunks. Systems smaller than one grain
// reduce in exactly the seed's serial order.
const (
	mulGrain = 256  // matrix rows per mulvec chunk
	vecGrain = 4096 // elements per vector-op / dot-product chunk
)

// cgScratch holds the four CG work vectors of one axis, reused across solves
// (and, via wsPool, across Global/Incremental calls) instead of being
// reallocated per solve.
type cgScratch struct {
	r, z, p, ap []float64
}

func (w *cgScratch) ensure(n int) {
	if cap(w.r) < n {
		w.r = make([]float64, n)
		w.z = make([]float64, n)
		w.p = make([]float64, n)
		w.ap = make([]float64, n)
	}
	w.r, w.z, w.p, w.ap = w.r[:n], w.z[:n], w.p[:n], w.ap[:n]
}

// solveWS is the per-solve workspace: one CG scratch per axis, because the
// two axes may run concurrently.
type solveWS struct {
	x, y cgScratch
}

// wsPool recycles solve workspaces across Global/Incremental calls. Every
// scratch element is fully written before it is read, so reuse cannot leak
// state between solves.
var wsPool = sync.Pool{New: func() any { return new(solveWS) }}

// solve runs the CG kernel for both dimensions on the working system,
// starting from the current positions, and leaves the solutions in
// posX/posY. The x and y systems share the (read-only) matrix but nothing
// else, so with more than one worker they solve concurrently, splitting the
// worker budget. It reports whether both axes converged (posX/posY hold the
// best-effort iterates either way).
func (s *System) solve(tol float64, maxIter, workers int, ws *solveWS, tok *stop.Token) (bool, error) {
	if faultinject.Hook(faultinject.SitePlacerCG) != nil {
		return false, nil // injected stagnation: exercise the retry path
	}
	a := spd{diag: s.diag, rowStart: s.rowStart, cols: s.cols, w: s.wcur}
	axis := func(x, b []float64, workers int, cs *cgScratch) (bool, error) {
		res, err := a.cg(x, b, tol, maxIter, workers, cs, tok)
		// Counters (solves, iterations) are deterministic; the exit residual
		// is a last-write gauge because the two axis solves race on it.
		s.obs.Add("placer.cg.solves", 1)
		s.obs.Add("placer.cg.iters", int64(res.iters))
		switch {
		case res.stopped:
			s.obs.Add("placer.cg.canceled", 1)
		case !res.converged:
			s.obs.Add("placer.cg.stagnated", 1)
		}
		s.obs.Gauge("placer.cg.residual", res.rel)
		return res.converged, err
	}
	var okX, okY bool
	var errX, errY error
	if workers > 1 {
		half := workers / 2
		par.Do(workers,
			func() { okX, errX = axis(s.posX, s.bx, half, &ws.x) },
			func() { okY, errY = axis(s.posY, s.by, workers-half, &ws.y) })
	} else {
		okX, errX = axis(s.posX, s.bx, 1, &ws.x)
		okY, errY = axis(s.posY, s.by, 1, &ws.y)
	}
	if errX != nil {
		return okX && okY, errX // x before y: deterministic error choice
	}
	return okX && okY, errY
}

// spd is a sparse symmetric positive-definite system in CSR form: row i is
// diag[i] on the diagonal and -w[k] at column cols[k] for k in
// [rowStart[i], rowStart[i+1]). The placer's working system and an ECO
// dirty component's local system are both one.
type spd struct {
	diag     []float64
	rowStart []int32
	cols     []int32
	w        []float64
}

// mulvec computes out = A*v. The CSR row walk is over contiguous cols/w
// memory, in the per-row neighbor order the fill recorded. Rows are
// independent, so chunked execution is deterministic for any worker count.
func (a spd) mulvec(v, out []float64, workers int) {
	par.Chunks(workers, len(a.diag), mulGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			acc := a.diag[i] * v[i]
			cols := a.cols[a.rowStart[i]:a.rowStart[i+1]]
			wts := a.w[a.rowStart[i]:a.rowStart[i+1]]
			for k, j := range cols {
				acc -= wts[k] * v[j]
			}
			out[i] = acc
		}
	})
}

func addF(a, b float64) float64 { return a + b }

// dot is the fixed-chunk parallel dot product: partial sums per vecGrain
// chunk, merged in chunk order (bit-identical for every worker count).
func dot(a, b []float64, workers int) float64 {
	return par.MapReduce(workers, len(a), vecGrain, func(lo, hi int) float64 {
		acc := 0.0
		for i := lo; i < hi; i++ {
			acc += a[i] * b[i]
		}
		return acc
	}, addF)
}

// cgResult is the outcome of one kernel solve: the iterations run, whether
// the residual met the tolerance, whether a fired stop token ended the
// solve, and the exit residual relative to |b|.
type cgResult struct {
	iters     int
	converged bool
	stopped   bool
	rel       float64
}

// cg is the placer's one conjugate-gradients kernel: Jacobi-preconditioned
// CG on A*x = b, warm-started from x, stopping when |r| <= tol*|b| or after
// maxIter iterations. The stop token is checked once per iteration. When the
// result is unconverged (budget exhausted, numerical breakdown, or a fired
// token) x holds the best iterate reached; a fired token additionally
// returns an error wrapping the stop sentinel. The caller records counters.
func (a spd) cg(x, b []float64, tol float64, maxIter, workers int, ws *cgScratch, tok *stop.Token) (cgResult, error) {
	n := len(a.diag)
	res := cgResult{rel: math.Inf(1)}
	ws.ensure(n)
	r, z, p, ap := ws.r, ws.z, ws.p, ws.ap
	a.mulvec(x, r, workers)
	par.Chunks(workers, n, vecGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r[i] = b[i] - r[i]
		}
	})
	bnorm := math.Sqrt(dot(b, b, workers))
	if bnorm == 0 {
		bnorm = 1
	}
	// exit records the residual at an unconverged-looking exit: converged
	// only if it already meets the tolerance.
	exit := func() {
		rcur := math.Sqrt(dot(r, r, workers))
		res.rel = rcur / bnorm
		res.converged = rcur <= tol*bnorm
	}
	rz := par.MapReduce(workers, n, vecGrain, func(lo, hi int) float64 {
		acc := 0.0
		for i := lo; i < hi; i++ {
			z[i] = r[i] / a.diag[i]
			p[i] = z[i]
			acc += r[i] * z[i]
		}
		return acc
	}, addF)
	for ; res.iters < maxIter; res.iters++ {
		if serr := stop.Check(tok, faultinject.SitePlacerCGCancel); serr != nil {
			res.stopped = true
			exit()
			return res, fmt.Errorf("placer: conjugate gradients: %w", serr)
		}
		rn := dot(r, r, workers)
		if math.Sqrt(rn) <= tol*bnorm {
			res.rel = math.Sqrt(rn) / bnorm
			res.converged = true
			return res, nil
		}
		a.mulvec(p, ap, workers)
		pap := dot(p, ap, workers)
		if pap <= 0 {
			exit() // numerical breakdown; x is best effort
			return res, nil
		}
		alpha := rz / pap
		par.Chunks(workers, n, vecGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x[i] += alpha * p[i]
				r[i] -= alpha * ap[i]
			}
		})
		rzNew := par.MapReduce(workers, n, vecGrain, func(lo, hi int) float64 {
			acc := 0.0
			for i := lo; i < hi; i++ {
				z[i] = r[i] / a.diag[i]
				acc += r[i] * z[i]
			}
			return acc
		}, addF)
		beta := rzNew / rz
		rz = rzNew
		par.Chunks(workers, n, vecGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				p[i] = z[i] + beta*p[i]
			}
		})
	}
	exit() // iteration budget exhausted
	return res, nil
}

// SolveQP runs one pure quadratic solve of the system — prepare with the
// options' anchor overlay, a single conjugate-gradients solve per axis, and a
// write-back — with no spreading, equalization, or legalization rounds. It
// exposes the exact linear system Global/Incremental iterate over, which is
// what the differential-testing oracle (internal/oracle) checks against a
// dense Gaussian-elimination reference; the flow itself always goes through
// Global/Incremental.
func (s *System) SolveQP(opt Options) error {
	if err := validate(s.c); err != nil {
		return err
	}
	opt.normalize(s.nMov)
	if s.nMov == 0 {
		return nil
	}
	s.obs = opt.Obs
	workers := par.Workers(opt.Parallelism)
	ws := wsPool.Get().(*solveWS)
	defer wsPool.Put(ws)
	converged, err := s.solveRound(&opt, nil, 0, workers, ws)
	if err != nil {
		return err
	}
	if !converged {
		return fmt.Errorf("placer: quadratic solve: %w", ErrNonConverged)
	}
	return nil
}

// writeBack clamps solved positions into the die and stores them on the
// circuit's movable cells.
func (s *System) writeBack(c *netlist.Circuit) {
	for i, id := range s.cells {
		if id < 0 {
			continue
		}
		c.Cells[id].Pos = c.Die.Clamp(geom.Pt(s.posX[i], s.posY[i]))
	}
}

// validate sanity-checks the circuit for placement.
func validate(c *netlist.Circuit) error {
	if c.Die.Area() <= 0 {
		return fmt.Errorf("placer: circuit %q has an empty die", c.Name)
	}
	return nil
}
