// Package skew implements the clock skew scheduling algorithms of Section
// VII of the paper:
//
//   - MaxSlack: the classic Fishburn max-slack schedule under long-path and
//     short-path constraints, solved exactly as the minimum cycle mean of
//     the constraint graph by cycle iteration on the Bellman-Ford kernel.
//   - MinDelta: the cost-driven variant that pulls every flip-flop's delay
//     target toward the phase available at the nearest point of its rotary
//     ring, minimizing the maximum mismatch Delta.
//   - WeightedSum: the alternative cost-driven objective minimizing
//     sum w_i |t_i - target_i|, solved exactly through the LP dual, which is
//     a min-cost circulation.
//
// All schedules are vectors of clock delay targets t-hat indexed by
// flip-flop index 0..n-1 (callers map netlist cell IDs to these indices).
//
// Error discipline: infeasibility of a caller-supplied constraint system is
// an expected outcome and is returned as an error wrapping ErrInfeasible.
// Panics are reserved for API misuse independent of the data — a constraint
// referencing a variable outside [0,n) is a bug in the caller's index
// mapping, not a property of the instance, and panics in Feasible.
package skew

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/mcmf"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/stop"
)

// ErrInfeasible marks schedules that do not exist: the difference-constraint
// system (or its cost-driven extension) admits no solution. Callers match it
// with errors.Is to drive recovery (relax the working slack, fall back to
// the max-slack schedule).
var ErrInfeasible = errors.New("skew: infeasible")

// SeqPair is a sequentially adjacent flip-flop pair: U launches, V captures,
// with extreme combinational delays between them.
type SeqPair struct {
	U, V       int
	DMax, DMin float64
}

// DiffConstraint is the difference constraint t[U] - t[V] <= Bound.
type DiffConstraint struct {
	U, V  int
	Bound float64
}

// slackFrac is the fraction of the max slack that stage 4 reserves as its
// working margin.
const slackFrac = 0.5

// WorkSlack reserves slackFrac of the max slack m as the timing margin
// cost-driven optimization works at. A negative max slack (a design that
// cannot close timing at this period) leaves no margin to reserve: taking a
// fraction would tighten the constraints past feasibility, so the full
// slack is used.
func WorkSlack(m float64) float64 {
	if m <= 0 {
		return m
	}
	return slackFrac * m
}

// SlackLadder is the relaxation ladder for a working slack m that proved
// infeasible: the full margin, half of it, then none. A non-positive margin
// has nothing to relax and is its own one-rung ladder.
func SlackLadder(m float64) []float64 {
	if m > 0 {
		return []float64{m, m / 2, 0}
	}
	return []float64{m}
}

// Constraints expands sequential pairs into the Fishburn difference
// constraints (6)-(7) for period T, slack M, and the given setup/hold times:
//
//	t_U - t_V <= T - DMax - setup - M      (long path)
//	t_V - t_U <= DMin - hold - M           (short path)
//
// Self pairs (U == V) become self-loop constraints 0 <= Bound, which the
// feasibility check handles naturally. The constraints are appended to dst,
// two per pair in pair order; pass nil for a fresh slice, or an earlier
// result's storage as dst[:0] to reuse it.
func Constraints(dst []DiffConstraint, pairs []SeqPair, T, M, setup, hold float64) []DiffConstraint {
	cons := slices.Grow(dst, 2*len(pairs))
	for _, p := range pairs {
		cons = append(cons,
			DiffConstraint{U: p.U, V: p.V, Bound: T - p.DMax - setup - M},
			DiffConstraint{U: p.V, V: p.U, Bound: p.DMin - hold - M},
		)
	}
	return cons
}

// Eps is the package's shared feasibility tolerance. Feasible stops
// relaxing once no constraint improves by more than Eps, so the potentials
// it certifies may violate a constraint by up to Eps — which is exactly the
// slop Verify's callers must allow: a schedule is feasible-within-tolerance
// when Verify(t, cons) <= Eps. Both functions reference this one constant
// so the relaxation slop and the verification threshold cannot drift apart.
const Eps = 1e-9

// Feasible solves the difference-constraint system over n variables with
// Bellman-Ford. On success it returns a satisfying assignment (shortest-path
// potentials, shifted so the minimum is zero); the assignment satisfies
// every constraint to within Eps. An infeasible system is rejected as soon
// as the relaxation exposes a negative constraint cycle, usually within a
// few rounds rather than the n+1-round cap. Constraints referencing
// variables outside [0,n) cause a panic.
func Feasible(n int, cons []DiffConstraint) ([]float64, bool) {
	t, ok, _ := feasible(nil, nil, n, cons)
	return t, ok
}

// feasible is Feasible with a cooperative stop token checked once per
// Bellman-Ford round (each round is O(m) work) and the kernel's counters
// recorded into reg. A fired token abandons the relaxation and reports the
// stop error; the partial distance vector is not a certificate and is
// discarded.
func feasible(tok *stop.Token, reg *obs.Registry, n int, cons []DiffConstraint) ([]float64, bool, error) {
	// Virtual source with zero-weight edges to every node is equivalent to
	// initializing all distances to zero.
	dist := make([]float64, n)
	_, ok, _, err := relax(tok, reg, n, cons, dist)
	if err != nil {
		return nil, false, fmt.Errorf("skew: feasibility check: %w", err)
	}
	if !ok {
		return nil, false, nil
	}
	normalize(dist)
	return dist, true, nil
}

func normalize(t []float64) {
	if len(t) == 0 {
		return
	}
	min := t[0]
	for _, v := range t {
		if v < min {
			min = v
		}
	}
	for i := range t {
		t[i] -= min
	}
}

// MaxSlack computes Fishburn's maximum slack M* — the largest M at which the
// constraint system (5)-(7) of the pairs is feasible — together with a
// schedule achieving it, by cycle iteration on the relax kernel. Every
// constraint bound shrinks by exactly one unit per unit of M, so M* is the
// minimum cycle mean of the M=0 constraint graph. The iteration starts at
// M = T (the cap of an acyclic graph) and probes from zero potentials; a
// feasible probe returns M and its normalized potentials, and an infeasible
// one hands back a witness cycle C, after which M becomes C's mean
// sum(Bound_0)/|C| under the M=0 bounds. relax only reports cycles with
// W < -2(|C|+1)*Eps, so every step lowers M by more than 2*Eps to the mean of
// a different simple cycle, and the loop ends after finitely many probes
// (DESIGN.md section 20). A probe that hits the round cap without a witness
// (a cycle inside the guard band) is reported as an error wrapping
// ErrInfeasible.
//
// The optional stop token is checked once per Bellman-Ford round of every
// probe. A fired token aborts with an error wrapping the stop sentinel; no
// partial schedule is returned (the caller keeps its previous schedule as
// the best-so-far). The probes' skew.* counters and one
// skew.maxslack.cycles count per witness cycle are recorded into reg.
// Both may be nil.
func MaxSlack(tok *stop.Token, reg *obs.Registry, n int, pairs []SeqPair, T, setup, hold float64) (float64, []float64, error) {
	if err := faultinject.Hook(faultinject.SiteSkewMaxSlack); err != nil {
		return 0, nil, err
	}
	base := Constraints(nil, pairs, T, 0, setup, hold)
	cons := make([]DiffConstraint, len(base))
	dist := make([]float64, n)
	for m := T; ; {
		// Bound_0 - m is bit-identical to Constraints(nil, pairs, T, m, ...).
		for i, c := range base {
			cons[i] = DiffConstraint{U: c.U, V: c.V, Bound: c.Bound - m}
		}
		clear(dist)
		_, ok, cycle, err := relax(tok, reg, n, cons, dist)
		if err != nil {
			return 0, nil, fmt.Errorf("skew: max-slack probe: %w", err)
		}
		if ok {
			normalize(dist)
			return m, dist, nil
		}
		if cycle == nil {
			return 0, nil, fmt.Errorf("skew: max-slack probe at slack %v hit the round cap without a witness cycle: %w", m, ErrInfeasible)
		}
		reg.Add("skew.maxslack.cycles", 1)
		w := 0.0
		for _, i := range cycle {
			w += base[i].Bound
		}
		m = w / float64(len(cycle))
	}
}

// Anchor carries the rotary-ring attraction data of one flip-flop for the
// cost-driven formulations: A is the clock delay at the nearest ring point c
// (t_ref + t_ref,c) and TCI the stub delay t_{c,i} from c to the flip-flop.
type Anchor struct {
	A   float64
	TCI float64
}

// MinDelta solves the cost-driven skew optimization of Section VII: find a
// schedule satisfying the difference constraints cons that minimizes the
// maximum anchor mismatch Delta, where per flip-flop i
//
//	A_i + 2 TCI_i - t_i <= Delta   and   t_i - A_i <= Delta.
//
// It binary-searches Delta, checking feasibility of the extended constraint
// graph (a ground node pins the absolute values). Each probe runs from zero
// potentials, so an infeasible Delta is rejected at its first negative
// anchor cycle and a feasible one costs the same rounds as a lone Feasible
// call on that system. The optional stop token is threaded into every probe
// and the probes' skew.* counters are recorded into reg (nil records
// nothing).
func MinDelta(tok *stop.Token, reg *obs.Registry, n int, cons []DiffConstraint, anchors []Anchor, tol float64) (float64, []float64, error) {
	if err := faultinject.Hook(faultinject.SiteSkewMinDelta); err != nil {
		return 0, nil, err
	}
	if len(anchors) != n {
		return 0, nil, fmt.Errorf("skew: %d anchors for %d flip-flops", len(anchors), n)
	}
	if tol <= 0 {
		tol = 1e-3
	}
	// Base feasibility (Delta = inf) and an initial schedule to bound Delta.
	t0, ok, err := feasible(tok, reg, n, cons)
	if err != nil {
		return 0, nil, err
	}
	if !ok {
		return 0, nil, fmt.Errorf("skew: difference constraints: %w", ErrInfeasible)
	}
	// The extended system is cons followed by two anchor arcs per flip-flop
	// through a ground node n (t[n] = 0 by convention: it only enters via the
	// anchor arcs, which force consistency with the absolute anchors). It is
	// built once; a probe rewrites only the anchor bounds.
	ext := make([]DiffConstraint, len(cons), len(cons)+2*n)
	copy(ext, cons)
	for i := range anchors {
		ext = append(ext, DiffConstraint{U: i, V: n}, DiffConstraint{U: n, V: i})
	}
	arcs := ext[len(cons):]
	probe, best := make([]float64, n+1), make([]float64, n+1)
	feasibleAt := func(delta float64) (bool, error) {
		for i, a := range anchors {
			arcs[2*i].Bound = a.A + delta             // t_i - t_g <= A_i + Delta
			arcs[2*i+1].Bound = delta - a.A - 2*a.TCI // t_g - t_i <= -(A_i + 2 TCI_i - Delta)
		}
		clear(probe)
		_, ok, _, err := relax(tok, reg, n+1, ext, probe)
		if err != nil {
			return false, fmt.Errorf("skew: feasibility check: %w", err)
		}
		return ok, nil
	}
	// Lower bound: Delta >= max TCI_i (adding the two per-FF constraints).
	lo := 0.0
	for _, a := range anchors {
		if a.TCI > lo {
			lo = a.TCI
		}
	}
	// Upper bound from the unconstrained-anchor schedule t0, shifted to
	// minimize its own mismatch.
	hi := lo
	shift := bestShift(t0, anchors)
	for i, a := range anchors {
		ti := t0[i] + shift
		hi = math.Max(hi, math.Max(a.A+2*a.TCI-ti, ti-a.A))
	}
	hi += 1 // strictly feasible margin
	found := false
	for hi-lo > tol {
		mid := (lo + hi) / 2
		ok, err := feasibleAt(mid)
		if err != nil {
			return 0, nil, err
		}
		if ok {
			hi, found = mid, true
			probe, best = best, probe
		} else {
			lo = mid
		}
	}
	if !found {
		ok, err := feasibleAt(hi)
		if err != nil {
			return 0, nil, err
		}
		if !ok {
			return 0, nil, fmt.Errorf("skew: internal: upper bound infeasible")
		}
		best = probe
	}
	normalize(best)
	return hi, rebase(best), nil
}

// rebase shifts a schedule with ground node at index n so the ground sits at
// zero, then drops it.
func rebase(t []float64) []float64 {
	n := len(t) - 1
	g := t[n]
	out := make([]float64, n)
	for i := range out {
		out[i] = t[i] - g
	}
	return out
}

// bestShift returns the scalar shift minimizing the maximum mismatch of
// schedule t against the anchors (difference constraints are shift
// invariant, so this is free).
func bestShift(t []float64, anchors []Anchor) float64 {
	// Minimize max_i max(A_i + 2TCI_i - t_i - s, t_i + s - A_i): the upper
	// envelope is piecewise linear in s; optimum at the midpoint of the
	// extreme residuals.
	loNeed, hiNeed := math.Inf(-1), math.Inf(1)
	for i, a := range anchors {
		loNeed = math.Max(loNeed, a.A+2*a.TCI-t[i]) // wants s >= this - Delta
		hiNeed = math.Min(hiNeed, a.A-t[i])         // wants s <= this + Delta
	}
	if math.IsInf(loNeed, -1) {
		return 0
	}
	return (loNeed + hiNeed) / 2
}

// WeightedSum solves the weighted-sum cost-driven formulation: minimize
// sum_i w_i |t_i - target_i| subject to the difference constraints, where
// target_i = A_i + TCI_i is the realized delay through the nearest ring
// point. Weights are rounded to positive integers (the paper's natural
// choice w_i = l_i is in micrometers, so unit resolution is ample).
//
// The LP dual is a min-cost circulation: each difference constraint
// t_U - t_V <= b becomes an infinite-capacity arc U->V of cost b, and each
// flip-flop exchanges up to w_i units with a ground node at cost +-target_i.
// Optimal node potentials of the residual network recover the schedule:
// relax, the package's one difference-constraint kernel, computes them as
// shortest distances from ground. The optional stop token is threaded into
// the base feasibility probe, the min-cost circulation and that recovery
// probe, and all three record their skew.* and mcmf.* counters into reg
// (nil records nothing).
func WeightedSum(tok *stop.Token, reg *obs.Registry, n int, cons []DiffConstraint, targets []float64, weights []float64) (float64, []float64, error) {
	if err := faultinject.Hook(faultinject.SiteSkewWeightedSum); err != nil {
		return 0, nil, err
	}
	if len(targets) != n || len(weights) != n {
		return 0, nil, fmt.Errorf("skew: targets/weights length mismatch")
	}
	if _, ok, err := feasible(tok, reg, n, cons); err != nil {
		return 0, nil, err
	} else if !ok {
		return 0, nil, fmt.Errorf("skew: difference constraints: %w", ErrInfeasible)
	}
	g, err := weightedSumCirculation(tok, reg, n, cons, targets, weights)
	if err != nil {
		return 0, nil, err
	}
	dist, err := distancesFrom(tok, reg, g, n)
	if err != nil {
		return 0, nil, err
	}
	t := make([]float64, n)
	for i := 0; i < n; i++ {
		if math.IsInf(dist[i], 1) {
			// Not connected to ground in the residual graph: both bound
			// arcs saturated in the same direction cannot happen (they are
			// antiparallel), so this means w_i = 0 paths; fall back to the
			// target itself.
			t[i] = targets[i]
			continue
		}
		t[i] = -dist[i]
	}
	// The integer-rounded weights give the exact optimum of the rounded
	// problem; report the objective of the recovered schedule under the
	// true weights for honesty.
	trueObj := 0.0
	for i := 0; i < n; i++ {
		trueObj += weights[i] * math.Abs(t[i]-targets[i])
	}
	return trueObj, t, nil
}

// weightedSumCirculation builds WeightedSum's dual network, ground at node
// n, and leaves its min-cost circulation on the arcs.
func weightedSumCirculation(tok *stop.Token, reg *obs.Registry, n int, cons []DiffConstraint, targets []float64, weights []float64) (*mcmf.Graph, error) {
	g := mcmf.NewGraph(n + 1)
	g.Stop = tok
	g.Obs = reg
	ground := n
	wi := make([]int, n)
	total := 0
	for i, w := range weights {
		wi[i] = int(math.Round(w))
		if wi[i] < 1 {
			wi[i] = 1
		}
		total += wi[i]
	}
	infCap := total + 1
	for _, c := range cons {
		if c.U == c.V {
			if c.Bound < 0 {
				return nil, fmt.Errorf("skew: negative self-loop constraint %+v", c)
			}
			continue
		}
		g.AddArc(c.U, c.V, infCap, c.Bound)
	}
	for i := 0; i < n; i++ {
		g.AddArc(i, ground, wi[i], targets[i])
		g.AddArc(ground, i, wi[i], -targets[i])
	}
	if _, err := g.MinCostCirculation(); err != nil {
		return nil, fmt.Errorf("skew: weighted-sum circulation: %w", err)
	}
	return g, nil
}

// distancesFrom returns the shortest-path distance from src to every
// node over g's residual network (+Inf where unreachable): relax from +Inf
// everywhere but src, each residual arc u->v of cost c the constraint
// dist[v] <= dist[u] + c, in ResidualArcs order.
func distancesFrom(tok *stop.Token, reg *obs.Registry, g *mcmf.Graph, src int) ([]float64, error) {
	var res []DiffConstraint
	g.ResidualArcs(func(from, to int, cost float64) {
		res = append(res, DiffConstraint{U: to, V: from, Bound: cost})
	})
	dist := make([]float64, g.NumNodes())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	_, ok, _, err := relax(tok, reg, len(dist), res, dist)
	if err != nil {
		return nil, fmt.Errorf("skew: weighted-sum schedule: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("skew: residual network has a negative cycle (circulation not optimal)")
	}
	return dist, nil
}

// Verify checks a schedule against the difference constraints, returning
// the worst violation: <= 0 means feasible, and certificates produced by
// Feasible may legitimately violate by up to Eps (compare against Eps, not
// 0, when verifying them). A self-loop constraint 0 <= Bound contributes a
// violation of -Bound only when violated (Bound < 0); satisfied self-loops
// constrain nothing and are skipped. An empty constraint set — or one whose
// every constraint is a satisfied self-loop — has no violation at all and
// returns 0, never -Inf.
func Verify(t []float64, cons []DiffConstraint) float64 {
	worst := math.Inf(-1)
	for _, c := range cons {
		var v float64
		if c.U == c.V {
			if c.Bound >= 0 {
				continue
			}
			v = -c.Bound
		} else {
			v = t[c.U] - t[c.V] - c.Bound
		}
		if v > worst {
			worst = v
		}
	}
	if math.IsInf(worst, -1) {
		return 0
	}
	return worst
}
