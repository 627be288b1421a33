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
	"slices"

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
	// Capacity is the per-ring flip-flop limit U_j for MinCost. Empty means
	// a uniform default of ceil(1.25 * len(FFs) / numRings).
	Capacity []int
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
	// TapFallback, when set, keeps a flip-flop whose every candidate tapping
	// solve failed in the problem by tapping the nearest point of its nearest
	// ring instead of erroring. The fallback tap does not realize the skew
	// target; its FF index is reported in Assignment.Fallbacks so callers can
	// account for the penalty. This is the flow's last-resort recovery, off
	// by default.
	TapFallback bool
	// Obs receives assignment telemetry: tapping-query case distribution
	// counters, deterministic because the query set depends only on the
	// instance (and, for PatchMinCost, on the previous assignment). Nil
	// records nothing.
	Obs *obs.Registry
	// Stop is the cooperative cancellation token, checked once per flip-flop
	// candidate row and threaded into the downstream flow/LP solvers. Nil
	// never stops. A fired token aborts the solve with an error wrapping the
	// stop sentinel (no partial Assignment is returned).
	Stop *stop.Token
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

	m *matrix // the candidate matrix this assignment was solved over
}

// matrix is the candidate matrix of one solve together with every input its
// rows depend on. A row is a pure function of the ring array, the
// flip-flop's position and target, its pinned ring, and the normalized K,
// TapFallback, so PatchMinCost reuses a previous assignment's
// row wherever those inputs are bit-equal. A flow solve also leaves its
// ring prices, the start of the next patch over the same array (DESIGN.md
// section 23). A matrix is never written after the solve that built it, so
// concurrent patches may share one, and a patch's matrix shares every row
// it reused.
type matrix struct {
	array    *rotary.Array
	k        int
	fallback bool
	ffs      []FF  // per flip-flop: cell, position, target
	pin      []int // Problem.Pin as solved (nil: nothing pinned)
	rows     [][]candidate
	price    []float64 // per ring: the flow solve's final price (nil: not a flow solve)
}

// ringAt is flip-flop i's entry in a per-flip-flop ring list such as
// Problem.Pin, -1 when the list is empty.
func ringAt(rings []int, i int) int {
	if len(rings) == 0 {
		return -1
	}
	return rings[i]
}

func (p *Problem) normalize() error {
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

// solveTap solves the tapping point of one candidate arc. It is the
// telemetry point for the four-case distribution: the query set is a pure
// function of the instance, so per-query counters stay deterministic.
func (p *Problem) solveTap(ring int, pos geom.Point, target float64) (rotary.Tap, bool) {
	tap, err := rotary.SolveTap(p.Array.Rings[ring], p.Array.Params, pos, target)
	ok := err == nil
	if reg := p.Obs; reg != nil {
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
// A non-nil reuse[i] is flip-flop i's row from an earlier solve of the same
// inputs (see matrix); the new matrix shares it instead of solving it.
// Flip-flops are independent, so the matrix builds in parallel (each
// worker writes only its own rows); the output is identical for every
// worker count.
func (p *Problem) candidates(reuse [][]candidate) ([][]candidate, error) {
	if err := faultinject.Hook(faultinject.SiteAssignCandidates); err != nil {
		return nil, err
	}
	out := make([][]candidate, len(p.FFs))
	errs := make([]error, len(p.FFs))
	params := p.Array.Params
	// A cold solve holds every candidate row in one arena at a fixed stride
	// of K (normalize clamps K to the ring count), so the hot loop never
	// grows a slice: each worker fills only its own K-capacity window and
	// publishes a capacity-clipped prefix of it. A patch gives each row it
	// solves an allocation of its own, so a chain of patches keeps alive
	// only the rows still in use (DESIGN.md section 21.1).
	var arena []candidate
	if reuse == nil {
		arena = make([]candidate, len(p.FFs)*p.K)
	}
	par.For(p.Parallelism, len(p.FFs), func(i int) {
		if err := stop.Check(p.Stop, faultinject.SiteAssignCandCancel); err != nil {
			errs[i] = fmt.Errorf("assign: candidate construction: %w", err)
			return
		}
		if i < len(reuse) && reuse[i] != nil {
			out[i] = reuse[i]
			return
		}
		ff := p.FFs[i]
		rings := p.Array.NearestRings(ff.Pos, p.K)
		if pin := ringAt(p.Pin, i); pin >= 0 {
			rings = []int{pin}
		}
		var row []candidate
		if arena != nil {
			row = arena[i*p.K : i*p.K : (i+1)*p.K]
		} else {
			row = make([]candidate, 0, p.K)
		}
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
		out[i] = row[:len(row):len(row)]
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
	tap, ok := rotary.NearestTap(p.Array.Rings[j], p.Array.Params, pos)
	if !ok {
		return candidate{}, false
	}
	return candidate{ring: j, tap: tap, cost: tap.WireLen, cap: p.Array.Params.StubCap(tap.WireLen), fallback: true}, true
}

// finish assembles an Assignment from per-FF choices and keeps the
// candidate matrix they were chosen from, with the flow solve's ring prices
// (nil for the other assigners).
func (p *Problem) finish(cands [][]candidate, choice []candidate, price []float64) *Assignment {
	a := &Assignment{
		Ring:  make([]int, len(choice)),
		Taps:  make([]rotary.Tap, len(choice)),
		Loads: make([]float64, len(p.Array.Rings)),
		m: &matrix{
			array:    p.Array,
			k:        p.K,
			fallback: p.TapFallback,
			ffs:      append([]FF(nil), p.FFs...),
			pin:      append([]int(nil), p.Pin...),
			rows:     cands,
			price:    price,
		},
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
		p.Obs.Add("assign.tap.fallbacks", int64(len(a.Fallbacks)))
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
// shortest paths (DESIGN.md section 19). It is solveFlow with no ring
// prices. The counters assign.mincost.preloaded and assign.mincost.deficit
// record the split. When optima tie, the ring chosen may differ from a
// zero-start solve's; the total does not.
func MinCost(p *Problem) (*Assignment, error) {
	if err := faultinject.Hook(faultinject.SiteAssignMinCost); err != nil {
		return nil, err
	}
	if err := p.normalize(); err != nil {
		return nil, err
	}
	cands, err := p.candidates(nil)
	if err != nil {
		return nil, err
	}
	p.Obs.Add("assign.mincost.calls", 1)
	choice, price, err := p.solveFlow(cands, nil, nil)
	if err != nil {
		return nil, err
	}
	return p.finish(cands, choice, price), nil
}

// network is the Fig. 4 flow network of one solveFlow call, with the arc
// IDs the preload pushes on and the choice is read back from.
type network struct {
	g         *mcmf.Graph
	cands     [][]candidate
	src       []mcmf.ArcID   // per FF: source -> FF
	arcs      [][]mcmf.ArcID // per FF, parallel to its candidate row
	sink      []mcmf.ArcID   // per ring: ring -> target
	capacity  []int
	preloaded int
}

// Node numbering of the network: source, target, flip-flops, rings.
const srcNode, sinkNode, ffBase = 0, 1, 2

// newNetwork builds the Fig. 4 network over cands, carrying no flow.
func (p *Problem) newNetwork(cands [][]candidate) *network {
	nFF, nR := len(cands), len(p.Array.Rings)
	g := mcmf.NewGraph(ffBase + nFF + nR)
	g.Obs = p.Obs
	g.Stop = p.Stop
	ffArcs := 0
	for _, cs := range cands {
		ffArcs += len(cs)
	}
	g.Reserve(nFF + ffArcs + nR)
	n := &network{
		g:        g,
		cands:    cands,
		src:      make([]mcmf.ArcID, nFF),
		arcs:     make([][]mcmf.ArcID, nFF),
		sink:     make([]mcmf.ArcID, nR),
		capacity: p.Capacity,
	}
	for i := range cands {
		n.src[i] = g.AddArc(srcNode, ffBase+i, 1, 0)
	}
	ids := make([]mcmf.ArcID, 0, ffArcs) // one backing array for every row
	for i, cs := range cands {
		for _, c := range cs {
			ids = append(ids, g.AddArc(ffBase+i, ffBase+nFF+c.ring, 1, c.cost))
		}
		n.arcs[i] = ids[len(ids)-len(cs):]
	}
	for j := range n.sink {
		n.sink[j] = g.AddArc(ffBase+nFF+j, sinkNode, p.Capacity[j], 0)
	}
	return n
}

// solveFlow is the one Fig. 4 solver behind MinCost and PatchMinCost: it
// builds the network over cands, preloads it under the ring prices price
// and the previous rings prev (nil: none), routes the remaining flip-flops
// along successive shortest paths, and reads back each flip-flop's
// candidate. It also returns the prices p_j = max(0, pot[t] - pot[ring_j])
// of its final potentials, the start of a later patch (DESIGN.md section
// 23).
func (p *Problem) solveFlow(cands [][]candidate, price []float64, prev []int) ([]candidate, []float64, error) {
	n := p.newNetwork(cands)
	pot := p.preloadPriced(n, price, prev)
	deficit := len(cands) - n.preloaded
	flow, _, err := n.g.MinCostFlowFrom(srcNode, sinkNode, deficit, pot)
	if err != nil {
		return nil, nil, fmt.Errorf("assign: flow solve: %w", err)
	}
	if flow < deficit {
		return nil, nil, fmt.Errorf("assign: only %d of %d flip-flops assignable under capacities (increase K or capacity): %w", n.preloaded+flow, len(cands), ErrInfeasible)
	}
	choice := make([]candidate, len(cands))
	for i, cs := range cands {
		found := false
		for k := range cs {
			if n.g.Flow(n.arcs[i][k]) > 0 {
				choice[i] = cs[k]
				found = true
				break
			}
		}
		if !found {
			return nil, nil, fmt.Errorf("assign: internal: flip-flop %d carries no flow", i)
		}
	}
	final := make([]float64, len(n.sink))
	for j := range final {
		final[j] = max(0, pot[sinkNode]-pot[ffBase+len(cands)+j])
	}
	return choice, final, nil
}

// keepTol is how far above its row's priced minimum a previous ring may
// price and still be kept by the preload: it absorbs the rounding of the
// stored prices (far below a micrometre, and three orders below the -1e-6
// reduced cost mcmf treats as a broken invariant). DESIGN.md section 23.1
// bounds the reduced costs it leaves by -keepTol.
const keepTol = 1e-9

// preloadPriced is solveFlow's preload. Under ring prices p_j >= 0 (nil:
// all zero), every flip-flop, in index order, goes on the candidate k that
// minimizes c_ij + p_j, the first such in its cost-sorted row, while that
// ring has capacity left; a flip-flop with a previous ring prev[i] >= 0
// (nil: none) goes there instead when that ring prices within keepTol of
// the minimum. A priced ring left with room loses its price and the
// preload reruns, so at most rings+1 passes run; assign.preload.repairs
// counts the prices dropped and assign.preload.kept the flip-flops left on
// their previous ring. The potentials are pot[FF_i] = -(c_ik + p_k) of the
// chosen candidate, pot[ring_j] = -p_j and 0 at the source and target,
// under which every residual arc except the reverse arcs into the source
// has a reduced cost of at least -keepTol: unused FF->ring arcs
// c_ij + p_j - (c_ik + p_k), reverses of used ones 0, open ring->target
// arcs 0 (their ring is unpriced), target->ring reverses p_j, open source
// arcs c_ik + p_k.
// With no prices and no previous rings this is the cheapest-ring preload
// of DESIGN.md section 19.1, bit for bit: pot[ring_j] is written only when
// p_j > 0.
func (p *Problem) preloadPriced(n *network, price []float64, prev []int) []float64 {
	nFF, nR := len(n.cands), len(n.sink)
	pr := make([]float64, nR) // a copy: price may belong to a shared matrix
	copy(pr, price)
	best := make([]int, nFF) // per FF: preloaded candidate, -1 if its ring was full
	pot := make([]float64, n.g.NumNodes())
	used := make([]int, nR)
	for {
		clear(used)
		for i, cs := range n.cands {
			k := 0
			for kk := 1; kk < len(cs); kk++ {
				if cs[kk].cost+pr[cs[kk].ring] < cs[k].cost+pr[cs[k].ring] {
					k = kk
				}
			}
			if r := ringAt(prev, i); r >= 0 && r != cs[k].ring {
				if kk := slices.IndexFunc(cs, func(c candidate) bool { return c.ring == r }); kk >= 0 &&
					cs[kk].cost+pr[r] <= cs[k].cost+pr[cs[k].ring]+keepTol {
					k = kk
				}
			}
			pot[ffBase+i] = -(cs[k].cost + pr[cs[k].ring])
			best[i] = -1
			if j := cs[k].ring; used[j] < n.capacity[j] {
				used[j]++
				best[i] = k
			}
		}
		repairs := 0
		for j, q := range pr {
			if q > 0 && used[j] < n.capacity[j] {
				pr[j] = 0
				repairs++
			}
		}
		if repairs == 0 {
			break
		}
		p.Obs.Add("assign.preload.repairs", int64(repairs))
	}
	for j, q := range pr {
		if q > 0 {
			pot[ffBase+nFF+j] = -q
		}
	}
	kept := 0
	for i, k := range best {
		if k < 0 {
			continue
		}
		j := n.cands[i][k].ring
		n.g.Push(n.src[i], 1)
		n.g.Push(n.arcs[i][k], 1)
		n.g.Push(n.sink[j], 1)
		n.preloaded++
		if j == ringAt(prev, i) {
			kept++
		}
	}
	if prev != nil {
		p.Obs.Add("assign.preload.kept", int64(kept))
	}
	p.Obs.Add("assign.mincost.preloaded", int64(n.preloaded))
	p.Obs.Add("assign.mincost.deficit", int64(nFF-n.preloaded))
	return pot
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
	cands, err := p.candidates(nil)
	if err != nil {
		return nil, nil, err
	}
	p.Obs.Add("assign.minmaxcap.calls", 1)
	res, err := lp.SolveAssignLP(sparseArcs(cands), len(p.Array.Rings), lp.Options{Obs: p.Obs, Stop: p.Stop})
	if err != nil {
		return nil, nil, err
	}
	if res.Status != lp.Optimal {
		if res.Status == lp.IterLimit {
			return nil, nil, fmt.Errorf("assign: LP relaxation %v: %w", res.Status, lp.ErrBudget)
		}
		return nil, nil, fmt.Errorf("assign: LP relaxation %v", res.Status)
	}
	a := p.finish(cands, greedyRound(cands, res.X), nil)
	rel := &Relax{LPOpt: res.Z, Solution: a.MaxCap, LPIters: res.Pivots}
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

// buildMinMaxLP constructs the ILP min z s.t. sum_j x_ij = 1,
// sum_i C_ij x_ij <= z, x_ij in {0, 1} for the B&B baseline.
func buildMinMaxLP(p *Problem, cands [][]candidate) (*lp.Problem, [][]int, int) {
	prob := lp.NewProblem()
	z := prob.AddVar("z", 1, 0, lp.Inf)
	vars := make([][]int, len(cands))
	ringCoefs := make([][]lp.Coef, len(p.Array.Rings))
	for i, cs := range cands {
		vars[i] = make([]int, len(cs))
		rowCoefs := make([]lp.Coef, len(cs))
		for k, c := range cs {
			v := prob.AddIntVar(fmt.Sprintf("x_%d_%d", i, c.ring), 0, 0, 1)
			vars[i][k] = v
			rowCoefs[k] = lp.Coef{Var: v, Val: 1}
			ringCoefs[c.ring] = append(ringCoefs[c.ring], lp.Coef{Var: v, Val: c.cap})
		}
		prob.AddConstraint(lp.EQ, 1, rowCoefs...)
	}
	for _, coefs := range ringCoefs {
		if len(coefs) == 0 {
			continue
		}
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
	cands, err := p.candidates(nil)
	if err != nil {
		return nil, lp.ILPSolution{}, err
	}
	prob, vars, _ := buildMinMaxLP(p, cands)
	if opts.Obs == nil {
		opts.Obs = p.Obs
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
	return p.finish(cands, choice, nil), sol, nil
}

// NearestOnly is the naive baseline: every flip-flop taps its nearest ring,
// ignoring both capacity and load balance. Used for ablations.
func NearestOnly(p *Problem) (*Assignment, error) {
	if err := p.normalize(); err != nil {
		return nil, err
	}
	cands, err := p.candidates(nil)
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
	return p.finish(cands, choice, nil), nil
}

// FirstFitDecreasing is an alternative rounding-free heuristic for the
// min-max-capacitance objective (an LPT-style ablation against greedy
// rounding): lp.FirstFitDecreasing over the candidate matrix, flip-flops in
// decreasing order of their lightest load, each assigned to the ring whose
// resulting load is smallest.
func FirstFitDecreasing(p *Problem) (*Assignment, error) {
	if err := p.normalize(); err != nil {
		return nil, err
	}
	cands, err := p.candidates(nil)
	if err != nil {
		return nil, err
	}
	first, _ := lp.FirstFitDecreasing(sparseArcs(cands), len(p.Array.Rings))
	choice := make([]candidate, len(cands))
	for i, k := range first {
		choice[i] = cands[i][k]
	}
	return p.finish(cands, choice, nil), nil
}
