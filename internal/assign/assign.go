// Package assign implements stage 3 of the paper's flow: associating every
// flip-flop with one rotary clock ring.
//
// Two formulations are provided, exactly as in the paper:
//
//   - MinCost (Section V): minimize total tapping wirelength subject to ring
//     capacities, solved optimally as a min-cost network flow (Fig. 4).
//   - MinMaxCap (Section VI): minimize the maximum capacitance loaded on any
//     ring (which bounds the array's oscillation frequency, eq. (2)), an ILP
//     solved by LP-relaxation plus the greedy rounding of Fig. 5. A generic
//     branch-and-bound solve of the same ILP reproduces the paper's Table I
//     baseline (a budgeted public-domain ILP solver).
package assign

import (
	"errors"
	"fmt"
	"math"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/lp"
	"rotaryclk/internal/mcmf"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/par"
	"rotaryclk/internal/rotary"
	"rotaryclk/internal/stop"
)

// ErrInfeasible marks assignment failures that stem from the instance, not
// from bad input: a flip-flop with no reachable ring, or capacities that
// cannot host every flip-flop. Callers match it with errors.Is to drive
// recovery (widen K, relax capacity, enable TapFallback).
var ErrInfeasible = errors.New("assign: infeasible")

// LPPath selects the solver behind MinMaxCap's LP relaxation.
type LPPath int

const (
	// LPSparse (the default) solves the relaxation with the specialized
	// bipartite-basis simplex (lp.SolveAssignLP), whose per-pivot cost is an
	// rings×rings working inverse instead of the dense (FFs+rings)² tableau.
	LPSparse LPPath = iota
	// LPDense routes through the generic dense two-phase simplex, kept as
	// the differential-oracle reference path (internal/oracle cross-checks
	// the two optima to 1e-9 on random instances).
	LPDense
)

// FF is one flip-flop to assign: its cell ID, placed location, and the clock
// delay target produced by skew optimization.
type FF struct {
	Cell   int
	Pos    geom.Point
	Target float64
}

// defaultK is the number of candidate rings per flip-flop the flow and the
// ECO path solve with before any relaxation.
const defaultK = 6

// Problem is a flip-flop-to-ring assignment instance.
type Problem struct {
	Array *rotary.Array
	FFs   []FF
	// K is the number of candidate rings considered per flip-flop (arc
	// pruning, as in the paper's flow network: far-away rings get no arc).
	// Zero means defaultK.
	K int
	// LP selects MinMaxCap's relaxation solver: LPSparse (default, the
	// bipartite-basis simplex) or LPDense (the generic simplex reference).
	LP LPPath
	// Capacity is the per-ring flip-flop limit U_j for MinCost. Empty means
	// a uniform default of ceil(1.25 * len(FFs) / numRings).
	Capacity []int
	// MaxStub, when positive, prunes candidate arcs whose tapping stub
	// exceeds it (Section III's stub-length limit), always keeping each
	// flip-flop's three cheapest arcs so the assignment stays feasible.
	MaxStub float64
	// Pin, when non-empty, pins flip-flop i to ring Pin[i]; an entry of -1
	// leaves that flip-flop free. A pinned flip-flop's candidate row is
	// restricted to the pinned ring (its tapping solve must still succeed,
	// or TapFallback rescue it, for the instance to stay feasible). This is
	// how the ECO RetargetRing delta forces a re-assignment. Length must be
	// 0 or len(FFs).
	Pin []int
	// Parallelism bounds the workers building the FF×ring candidate matrix
	// (each tapping solve is independent): 0 = GOMAXPROCS, 1 = serial.
	// The result is identical for every value.
	Parallelism int
	// Cache, when non-nil, memoizes tapping solves across calls so the
	// flow's re-optimization loop stops re-solving unchanged flip-flops.
	// Must be dedicated to this problem's Array (see TapCache).
	Cache *TapCache
	// TapFallback, when set, keeps a flip-flop whose every candidate tapping
	// solve failed in the problem by tapping the nearest point of its nearest
	// ring instead of erroring. The fallback tap does not realize the skew
	// target; its FF index is reported in Assignment.Fallbacks so callers can
	// account for the penalty. This is the flow's last-resort recovery, off
	// by default.
	TapFallback bool
	// Obs receives assignment telemetry: tapping-query case distribution
	// counters (deterministic — the query set depends only on the instance)
	// and TapCache hit/miss stats (scheduling-dependent: concurrent misses
	// on one key may both compute). Nil falls back to the armed global
	// registry; disarmed costs one atomic load per solve.
	Obs *obs.Registry
	// Stop is the cooperative cancellation token, checked once per flip-flop
	// candidate row and threaded into the downstream flow/LP solvers. Nil
	// never stops. A fired token aborts the solve with an error wrapping the
	// stop sentinel (no partial Assignment is returned).
	Stop *stop.Token

	obsReg *obs.Registry // resolved once in normalize
}

// Assignment is the result of any of the assigners.
type Assignment struct {
	Ring    []int        // per FF: assigned ring ID
	Taps    []rotary.Tap // per FF: solved tapping point on that ring
	Total   float64      // total tapping wirelength (um)
	MaxCap  float64      // maximum ring load capacitance (fF)
	Loads   []float64    // per ring load capacitance (fF)
	AvgDist float64      // average flip-flop tapping distance (AFD, um)
	// Fallbacks lists FF indices tapped via the nearest-point fallback
	// (Problem.TapFallback); their taps do not realize the skew target.
	Fallbacks []int
}

func (p *Problem) normalize() error {
	p.obsReg = obs.Resolve(p.Obs)
	if p.Array == nil || len(p.Array.Rings) == 0 {
		return fmt.Errorf("assign: no rotary rings")
	}
	if len(p.FFs) == 0 {
		return fmt.Errorf("assign: no flip-flops")
	}
	if p.K <= 0 {
		p.K = defaultK
	}
	if p.K > len(p.Array.Rings) {
		p.K = len(p.Array.Rings)
	}
	if len(p.Capacity) == 0 {
		u := (len(p.FFs)*5/4)/len(p.Array.Rings) + 1
		p.Capacity = make([]int, len(p.Array.Rings))
		for j := range p.Capacity {
			p.Capacity[j] = u
		}
	} else if len(p.Capacity) != len(p.Array.Rings) {
		return fmt.Errorf("assign: %d capacities for %d rings", len(p.Capacity), len(p.Array.Rings))
	}
	if len(p.Pin) != 0 {
		if len(p.Pin) != len(p.FFs) {
			return fmt.Errorf("assign: %d pins for %d flip-flops", len(p.Pin), len(p.FFs))
		}
		for i, j := range p.Pin {
			if j >= len(p.Array.Rings) {
				return fmt.Errorf("assign: flip-flop %d pinned to ring %d of %d", i, j, len(p.Array.Rings))
			}
		}
	}
	total := 0
	for _, u := range p.Capacity {
		if u < 0 {
			return fmt.Errorf("assign: negative ring capacity")
		}
		total += u
	}
	if total < len(p.FFs) {
		return fmt.Errorf("assign: total ring capacity %d below %d flip-flops: %w", total, len(p.FFs), ErrInfeasible)
	}
	return nil
}

// candidate holds one feasible (flip-flop, ring) arc.
type candidate struct {
	ring     int
	tap      rotary.Tap
	cost     float64 // tapping wirelength
	cap      float64 // load capacitance C_p^{ij}
	fallback bool    // nearest-point tap; does not realize the skew target
}

// solveTap solves (or cache-looks-up) the tapping point of one candidate arc.
// It is the telemetry point for the four-case distribution: the query set is
// a pure function of the instance, so per-query counters stay deterministic
// even though cache hit/miss (a stat) depends on scheduling.
func (p *Problem) solveTap(ring int, pos geom.Point, target float64) (rotary.Tap, bool) {
	reg := p.obsReg
	var tap rotary.Tap
	var ok bool
	if p.Cache != nil {
		var hit bool
		tap, ok, hit = p.Cache.solve(p.Array, ring, pos, target)
		if reg != nil {
			if hit {
				reg.Stat("assign.tapcache.hits", 1)
			} else {
				reg.Stat("assign.tapcache.misses", 1)
			}
		}
	} else {
		t, err := rotary.SolveTap(p.Array.Rings[ring], p.Array.Params, pos, target)
		tap, ok = t, err == nil
	}
	if reg != nil {
		reg.Add("assign.tap.queries", 1)
		switch {
		case !ok:
			reg.Add("assign.tap.infeasible", 1)
		case tap.Snaked:
			reg.Add("assign.tap.case4", 1) // wire-snaking detour
		case tap.Periods != 0:
			reg.Add("assign.tap.case1", 1) // whole-period shift
		default:
			reg.Add("assign.tap.case23", 1) // direct root (two-root or unique)
		}
	}
	return tap, ok
}

// candidates computes the pruned arc set: for each flip-flop, the K nearest
// rings with their solved taps. Every flip-flop keeps at least one arc.
// Flip-flops are independent, so the matrix builds in parallel (each worker
// writes only its own rows); the output is identical for every worker count.
func (p *Problem) candidates() ([][]candidate, error) {
	if err := faultinject.Hook(faultinject.SiteAssignCandidates); err != nil {
		return nil, err
	}
	out := make([][]candidate, len(p.FFs))
	errs := make([]error, len(p.FFs))
	params := p.Array.Params
	// One arena holds every candidate row at a fixed stride of K (normalize
	// clamps K to the ring count), so the hot loop never grows a slice:
	// each worker fills only its own K-capacity window and publishes a
	// capacity-clipped prefix of it.
	arena := make([]candidate, len(p.FFs)*p.K)
	par.For(p.Parallelism, len(p.FFs), func(i int) {
		if err := stop.Check(p.Stop, faultinject.SiteAssignCandCancel); err != nil {
			errs[i] = fmt.Errorf("assign: candidate construction: %w", err)
			return
		}
		ff := p.FFs[i]
		rings := p.Array.NearestRings(ff.Pos, p.K)
		if len(p.Pin) > 0 && p.Pin[i] >= 0 {
			rings = []int{p.Pin[i]}
		}
		row := arena[i*p.K : i*p.K : (i+1)*p.K]
		for _, j := range rings {
			tap, ok := p.solveTap(j, ff.Pos, ff.Target)
			if !ok {
				continue
			}
			c := candidate{
				ring: j,
				tap:  tap,
				cost: tap.WireLen,
				cap:  params.StubCap(tap.WireLen),
			}
			// Stable insertion keeps the row sorted by cost with ties in
			// NearestRings order, matching a stable sort of the appended row.
			pos := len(row)
			row = row[:pos+1]
			for pos > 0 && row[pos-1].cost > c.cost {
				row[pos] = row[pos-1]
				pos--
			}
			row[pos] = c
		}
		if len(row) == 0 && p.TapFallback && len(rings) > 0 {
			if c, ok := p.fallbackCandidate(rings[0], ff.Pos); ok {
				row = append(row, c)
			}
		}
		if len(row) == 0 {
			errs[i] = fmt.Errorf("assign: flip-flop %d (cell %d) has no feasible ring: %w", i, p.FFs[i].Cell, ErrInfeasible)
			return
		}
		// Stubs beyond MaxStub defeat rotary clocking's variability
		// advantage (Section III); prune them from the arc set, but keep the
		// three cheapest arcs regardless so capacitated assignment stays
		// feasible on dense clusters.
		const minArcs = 3
		cut := len(row)
		for k := minArcs; k < len(row); k++ {
			if p.MaxStub > 0 && row[k].cost > p.MaxStub {
				cut = k // sorted: everything after also exceeds the limit
				break
			}
		}
		out[i] = row[:cut:cut]
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fallbackCandidate taps the nearest point of ring j with a direct stub; the
// realized delay is whatever the ring provides there, not the skew target.
func (p *Problem) fallbackCandidate(j int, pos geom.Point) (candidate, bool) {
	r := p.Array.Rings[j]
	s, pt, dist := r.Nearest(pos)
	if math.IsNaN(dist) || math.IsInf(dist, 0) {
		return candidate{}, false
	}
	prm := p.Array.Params
	d := math.Mod(r.DelayAt(s, prm.Period)+prm.StubDelay(dist), prm.Period)
	tap := rotary.Tap{Ring: j, Point: pt, WireLen: dist, Delay: d}
	return candidate{ring: j, tap: tap, cost: dist, cap: prm.StubCap(dist), fallback: true}, true
}

// finish assembles an Assignment from per-FF choices.
func (p *Problem) finish(choice []candidate) *Assignment {
	a := &Assignment{
		Ring:  make([]int, len(choice)),
		Taps:  make([]rotary.Tap, len(choice)),
		Loads: make([]float64, len(p.Array.Rings)),
	}
	for i, c := range choice {
		a.Ring[i] = c.ring
		a.Taps[i] = c.tap
		a.Total += c.cost
		a.Loads[c.ring] += c.cap
		if c.fallback {
			a.Fallbacks = append(a.Fallbacks, i)
		}
	}
	for _, l := range a.Loads {
		if l > a.MaxCap {
			a.MaxCap = l
		}
	}
	a.AvgDist = a.Total / float64(len(choice))
	if len(a.Fallbacks) > 0 {
		p.obsReg.Add("assign.tap.fallbacks", int64(len(a.Fallbacks)))
	}
	return a
}

// MinCost solves the Section V formulation: minimize total tapping cost
// subject to ring capacities, via min-cost max-flow. The flow network is
// exactly Fig. 4: source -> flip-flops (cap 1) -> candidate rings (cap 1,
// cost c_ij) -> target (cap U_j).
//
// The solve starts from a flow that is nearly optimal already: each
// flip-flop, in index order, is preloaded on its cheapest candidate while
// that ring has capacity left, with the closed-form duals of that flow as
// potentials, and only the flip-flops left over are routed by successive
// shortest paths (DESIGN.md section 19). The counters
// assign.mincost.preloaded and assign.mincost.deficit record the split.
// When optima tie, the ring chosen may differ from a zero-start solve's;
// the total does not.
func MinCost(p *Problem) (*Assignment, error) {
	if err := faultinject.Hook(faultinject.SiteAssignMinCost); err != nil {
		return nil, err
	}
	if err := p.normalize(); err != nil {
		return nil, err
	}
	cands, err := p.candidates()
	if err != nil {
		return nil, err
	}
	p.obsReg.Add("assign.mincost.calls", 1)
	choice, err := p.solveFlow(cands, p.preloadCheapest)
	if err != nil {
		return nil, err
	}
	return p.finish(choice), nil
}

// network is the Fig. 4 flow network of one MinCost or PatchMinCost solve,
// with the arc IDs that preloads push on and the choice is read back from.
type network struct {
	g         *mcmf.Graph
	cands     [][]candidate
	src       []mcmf.ArcID   // per FF: source -> FF
	arcs      [][]mcmf.ArcID // per FF, parallel to its candidate row
	sink      []mcmf.ArcID   // per ring: ring -> target
	capacity  []int
	used      []int // per ring: units preloaded
	preloaded int
}

// Node numbering of the network: source, target, flip-flops, rings.
const srcNode, sinkNode, ffBase = 0, 1, 2

// route preloads flip-flop i along its k-th candidate if that ring has
// capacity left.
func (n *network) route(i, k int) {
	j := n.cands[i][k].ring
	if n.used[j] >= n.capacity[j] {
		return
	}
	n.g.Push(n.src[i], 1)
	n.g.Push(n.arcs[i][k], 1)
	n.g.Push(n.sink[j], 1)
	n.used[j]++
	n.preloaded++
}

// solveFlow is the one Fig. 4 solver behind MinCost and PatchMinCost: it
// builds the network over cands, lets preload route a first flow and return
// potentials feasible for it (nil: mcmf computes Bellman-Ford ones), routes
// the remaining flip-flops along successive shortest paths, and reads back
// each flip-flop's candidate. Errors from preload pass through unwrapped.
func (p *Problem) solveFlow(cands [][]candidate, preload func(*network) ([]float64, error)) ([]candidate, error) {
	nFF, nR := len(cands), len(p.Array.Rings)
	g := mcmf.NewGraph(ffBase + nFF + nR)
	g.Obs = p.obsReg
	g.Stop = p.Stop
	n := &network{
		g:        g,
		cands:    cands,
		src:      make([]mcmf.ArcID, nFF),
		arcs:     make([][]mcmf.ArcID, nFF),
		sink:     make([]mcmf.ArcID, nR),
		capacity: p.Capacity,
		used:     make([]int, nR),
	}
	for i := range cands {
		n.src[i] = g.AddArc(srcNode, ffBase+i, 1, 0)
	}
	for i, cs := range cands {
		n.arcs[i] = make([]mcmf.ArcID, len(cs))
		for k, c := range cs {
			n.arcs[i][k] = g.AddArc(ffBase+i, ffBase+nFF+c.ring, 1, c.cost)
		}
	}
	for j := range n.sink {
		n.sink[j] = g.AddArc(ffBase+nFF+j, sinkNode, p.Capacity[j], 0)
	}
	pot, err := preload(n)
	if err != nil {
		return nil, err
	}
	deficit := nFF - n.preloaded
	var flow int
	if pot != nil {
		flow, _, err = g.MinCostFlowFrom(srcNode, sinkNode, deficit, pot)
	} else {
		flow, _, err = g.MinCostFlow(srcNode, sinkNode, deficit)
	}
	if err != nil {
		return nil, fmt.Errorf("assign: flow solve: %w", err)
	}
	if flow < deficit {
		return nil, fmt.Errorf("assign: only %d of %d flip-flops assignable under capacities (increase K or capacity): %w", n.preloaded+flow, nFF, ErrInfeasible)
	}
	choice := make([]candidate, nFF)
	for i, cs := range cands {
		found := false
		for k := range cs {
			if g.Flow(n.arcs[i][k]) > 0 {
				choice[i] = cs[k]
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("assign: internal: flip-flop %d carries no flow", i)
		}
	}
	return choice, nil
}

// preloadCheapest is MinCost's preload: every flip-flop, in index order, on
// its cheapest candidate (rows are sorted by cost) while that ring has
// capacity left. Its potentials are pot[FF_i] = -c_min(i) and 0 at the
// source, target and rings, under which every residual arc except the
// reverse arcs into the source has a non-negative reduced cost: unused
// FF->ring arcs c_ij - c_min(i), reverses of used ones 0, ring<->target
// arcs 0, open source arcs c_min(i).
func (p *Problem) preloadCheapest(n *network) ([]float64, error) {
	pot := make([]float64, n.g.NumNodes())
	for i, cs := range n.cands {
		pot[ffBase+i] = -cs[0].cost
		n.route(i, 0)
	}
	p.obsReg.Add("assign.mincost.preloaded", int64(n.preloaded))
	p.obsReg.Add("assign.mincost.deficit", int64(len(n.cands)-n.preloaded))
	return pot, nil
}

// Relax is the LP-relaxation result backing Table I.
type Relax struct {
	LPOpt    float64 // OPT(LP): optimal fractional max load capacitance
	Solution float64 // SOLN(ILP) of the rounded solution
	IG       float64 // integrality gap SOLN/OPT
	LPIters  int
}

// MinMaxCap solves the Section VI formulation by LP-relaxation + greedy
// rounding (Fig. 5): minimize the maximum load capacitance over rings, no
// capacity constraints, each flip-flop on exactly one ring.
func MinMaxCap(p *Problem) (*Assignment, *Relax, error) {
	if err := faultinject.Hook(faultinject.SiteAssignMinMaxCap); err != nil {
		return nil, nil, err
	}
	if err := p.normalize(); err != nil {
		return nil, nil, err
	}
	cands, err := p.candidates()
	if err != nil {
		return nil, nil, err
	}
	p.obsReg.Add("assign.minmaxcap.calls", 1)
	var (
		x     [][]float64
		lpOpt float64
		iters int
	)
	if p.LP == LPDense {
		p.obsReg.Add("assign.lp.path.dense", 1)
		prob, vars, z := buildMinMaxLP(p, cands, false)
		sol, err := prob.SolveOpts(lp.Options{Obs: p.obsReg, Stop: p.Stop})
		if err != nil {
			return nil, nil, err
		}
		if sol.Status != lp.Optimal {
			if sol.BudgetExceeded() {
				return nil, nil, fmt.Errorf("assign: LP relaxation %v: %w", sol.Status, lp.ErrBudget)
			}
			return nil, nil, fmt.Errorf("assign: LP relaxation %v", sol.Status)
		}
		x = perFFValues(cands, vars, sol.X)
		lpOpt, iters = sol.X[z], sol.Iters
	} else {
		p.obsReg.Add("assign.lp.path.sparse", 1)
		res, err := lp.SolveAssignLP(sparseArcs(cands), len(p.Array.Rings), lp.Options{Obs: p.obsReg, Stop: p.Stop})
		if err != nil {
			return nil, nil, err
		}
		if res.Status != lp.Optimal {
			if res.Status == lp.IterLimit {
				return nil, nil, fmt.Errorf("assign: LP relaxation %v: %w", res.Status, lp.ErrBudget)
			}
			return nil, nil, fmt.Errorf("assign: LP relaxation %v", res.Status)
		}
		x, lpOpt, iters = res.X, res.Z, res.Pivots
	}
	choice := greedyRound(cands, x)
	a := p.finish(choice)
	rel := &Relax{LPOpt: lpOpt, Solution: a.MaxCap, LPIters: iters}
	if rel.LPOpt > 0 {
		rel.IG = rel.Solution / rel.LPOpt
	}
	return a, rel, nil
}

// sparseArcs converts the candidate matrix into the flat arc lists of
// lp.SolveAssignLP: ring index and load capacitance, no variable naming, no
// dense rows. One backing array serves every row.
func sparseArcs(cands [][]candidate) [][]lp.AssignArc {
	total := 0
	for _, cs := range cands {
		total += len(cs)
	}
	arcs := make([][]lp.AssignArc, len(cands))
	flat := make([]lp.AssignArc, 0, total)
	for i, cs := range cands {
		start := len(flat)
		for _, c := range cs {
			flat = append(flat, lp.AssignArc{Bin: c.ring, Load: c.cap})
		}
		arcs[i] = flat[start:len(flat):len(flat)]
	}
	return arcs
}

// perFFValues reshapes a dense solution vector into per-FF fraction rows
// aligned with the candidate matrix.
func perFFValues(cands [][]candidate, vars [][]int, x []float64) [][]float64 {
	out := make([][]float64, len(cands))
	for i := range cands {
		row := make([]float64, len(cands[i]))
		for k := range row {
			row[k] = x[vars[i][k]]
		}
		out[i] = row
	}
	return out
}

// greedyRound is the paper's Fig. 5: keep integral assignments, otherwise
// pick the ring with the largest fractional value (first such ring on ties,
// matching the deterministic scan of the pseudo-code).
func greedyRound(cands [][]candidate, x [][]float64) []candidate {
	choice := make([]candidate, len(cands))
	for i, cs := range cands {
		best, bestV := 0, -1.0
		for k := range cs {
			if v := x[i][k]; v > bestV+1e-12 {
				best, bestV = k, v
			}
		}
		choice[i] = cs[best]
	}
	return choice
}

// buildMinMaxLP constructs min z s.t. sum_j x_ij = 1, sum_i C_ij x_ij <= z.
// When integer is true the x variables are integral (for the B&B baseline).
func buildMinMaxLP(p *Problem, cands [][]candidate, integer bool) (*lp.Problem, [][]int, int) {
	prob := lp.NewProblem()
	z := prob.AddVar("z", 1, 0, lp.Inf)
	vars := make([][]int, len(cands))
	ringCoefs := make([][]lp.Coef, len(p.Array.Rings))
	for i, cs := range cands {
		vars[i] = make([]int, len(cs))
		rowCoefs := make([]lp.Coef, len(cs))
		for k, c := range cs {
			name := fmt.Sprintf("x_%d_%d", i, c.ring)
			var v int
			if integer {
				v = prob.AddIntVar(name, 0, 0, 1)
			} else {
				v = prob.AddVar(name, 0, 0, 1)
			}
			vars[i][k] = v
			rowCoefs[k] = lp.Coef{Var: v, Val: 1}
			ringCoefs[c.ring] = append(ringCoefs[c.ring], lp.Coef{Var: v, Val: c.cap})
		}
		prob.AddConstraint(lp.EQ, 1, rowCoefs...)
	}
	for j, coefs := range ringCoefs {
		if len(coefs) == 0 {
			continue
		}
		_ = j
		prob.AddConstraint(lp.LE, 0, append(coefs, lp.Coef{Var: z, Val: -1})...)
	}
	return prob, vars, z
}

// MinMaxCapILP solves the same ILP with the generic branch-and-bound solver
// under a budget, reproducing the paper's Table I baseline protocol (GLPK
// with a wall-clock bound, best incumbent reported). The returned assignment
// is nil when the solver finds no incumbent within budget.
func MinMaxCapILP(p *Problem, opts lp.ILPOptions) (*Assignment, lp.ILPSolution, error) {
	if err := p.normalize(); err != nil {
		return nil, lp.ILPSolution{}, err
	}
	cands, err := p.candidates()
	if err != nil {
		return nil, lp.ILPSolution{}, err
	}
	prob, vars, _ := buildMinMaxLP(p, cands, true)
	if opts.Obs == nil {
		opts.Obs = p.obsReg
	}
	if opts.Stop == nil {
		opts.Stop = p.Stop
	}
	sol, err := prob.SolveILP(opts)
	if err != nil {
		return nil, sol, err
	}
	if sol.X == nil {
		return nil, sol, nil
	}
	choice := greedyRound(cands, perFFValues(cands, vars, sol.X)) // integral X: picks the 1s
	return p.finish(choice), sol, nil
}

// NearestOnly is the naive baseline: every flip-flop taps its nearest ring,
// ignoring both capacity and load balance. Used for ablations.
func NearestOnly(p *Problem) (*Assignment, error) {
	if err := p.normalize(); err != nil {
		return nil, err
	}
	cands, err := p.candidates()
	if err != nil {
		return nil, err
	}
	choice := make([]candidate, len(cands))
	for i, cs := range cands {
		best := 0
		for k := range cs {
			if cs[k].cost < cs[best].cost {
				best = k
			}
		}
		choice[i] = cs[best]
	}
	return p.finish(choice), nil
}

// FirstFitDecreasing is an alternative rounding-free heuristic for the
// min-max-capacitance objective (an LPT-style ablation against greedy
// rounding): flip-flops in decreasing order of their lightest load, each
// assigned to the ring whose resulting load is smallest.
func FirstFitDecreasing(p *Problem) (*Assignment, error) {
	if err := p.normalize(); err != nil {
		return nil, err
	}
	cands, err := p.candidates()
	if err != nil {
		return nil, err
	}
	order := make([]int, len(cands))
	key := make([]float64, len(cands))
	for i, cs := range cands {
		order[i] = i
		k := math.Inf(1)
		for _, c := range cs {
			k = math.Min(k, c.cap)
		}
		key[i] = k
	}
	// Insertion sort descending by key (stable, deterministic).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && key[order[j]] > key[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	loads := make([]float64, len(p.Array.Rings))
	choice := make([]candidate, len(cands))
	for _, i := range order {
		best, bestLoad := -1, math.Inf(1)
		for k, c := range cands[i] {
			if l := loads[c.ring] + c.cap; l < bestLoad {
				best, bestLoad = k, l
			}
		}
		choice[i] = cands[i][best]
		loads[choice[i].ring] += choice[i].cap
	}
	return p.finish(choice), nil
}
