package oracle

import (
	"fmt"
	"math"

	"rotaryclk/internal/skew"
)

// refFeasible is a textbook Bellman-Ford feasibility check for the
// difference-constraint system t[U] - t[V] <= Bound: distances start at 0
// (virtual source), n full relaxation passes, and a final pass that still
// relaxes proves a negative cycle. Written without the production solver's
// Eps-relaxed early exit.
func refFeasible(n int, cons []skew.DiffConstraint) ([]float64, bool) {
	dist := make([]float64, n)
	for pass := 0; pass < n; pass++ {
		changed := false
		for _, c := range cons {
			if nd := dist[c.V] + c.Bound; nd < dist[c.U]-1e-12 {
				dist[c.U] = nd
				changed = true
			}
		}
		if !changed {
			return dist, true
		}
	}
	for _, c := range cons {
		if dist[c.V]+c.Bound < dist[c.U]-1e-12 {
			return nil, false
		}
	}
	return dist, true
}

// refMaxSlack binary-searches the largest slack M at which the Fishburn
// constraint system stays feasible, to tolerance tol; genMinDelta places its
// working slack below it. Like the production solver, an unconditionally
// feasible system (acyclic constraint graph) is capped at M = T. ok is false
// when no feasible M was bracketed.
func refMaxSlack(in *SkewInstance, tol float64) (m float64, ok bool) {
	feas := func(M float64) bool {
		_, f := refFeasible(in.N, skew.Constraints(nil, in.Pairs, in.T, M, in.Setup, in.Hold))
		return f
	}
	if feas(in.T) {
		return in.T, true
	}
	lo := -in.T
	if lo >= 0 {
		lo = -1
	}
	for i := 0; !feas(lo); i++ {
		lo *= 2
		if i > 60 {
			return 0, false
		}
	}
	hi := in.T
	for hi-lo > tol {
		mid := lo + (hi-lo)/2
		if feas(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true
}

// refMinCycleMean is Karp's dynamic program for the minimum mean weight over
// all directed cycles of the constraint graph (edge V -> U of weight Bound
// per constraint), +Inf when the graph is acyclic. Row d[k][v] is the least
// weight of a walk of exactly k edges ending at v from anywhere (d[0] = 0, a
// virtual super-source that keeps every cycle reachable), and the minimum
// cycle mean is min over v of max over k of (d[n][v]-d[k][v])/(n-k). It
// does O(n*m) work and keeps all n+1 rows of n floats, which is why it is a
// reference and not the production solver.
func refMinCycleMean(n int, cons []skew.DiffConstraint) float64 {
	inf := math.Inf(1)
	d := make([][]float64, n+1)
	d[0] = make([]float64, n)
	for k := 1; k <= n; k++ {
		d[k] = make([]float64, n)
		for v := range d[k] {
			d[k][v] = inf
		}
		for _, c := range cons {
			if w := d[k-1][c.V] + c.Bound; w < d[k][c.U] {
				d[k][c.U] = w
			}
		}
	}
	best := inf
	for v := 0; v < n; v++ {
		if math.IsInf(d[n][v], 1) {
			continue // no n-edge walk ends here; v is not on a long cycle path
		}
		worst := math.Inf(-1)
		for k := 0; k < n; k++ {
			// An unreachable d[k][v] = +Inf gives r = -Inf, which never wins.
			if r := (d[n][v] - d[k][v]) / float64(n-k); r > worst {
				worst = r
			}
		}
		if worst < best {
			best = worst
		}
	}
	return best
}

// CheckSkew differentially tests skew.MaxSlack (cycle iteration on the
// Bellman-Ford kernel) against Karp's minimum cycle mean of the M=0
// constraint graph, capped at T for an acyclic graph like the solver: the
// slacks must agree to 1e-9 relative, and the production schedule must
// satisfy its constraint system at the claimed slack itself to within Eps.
func CheckSkew(in *SkewInstance, seed int64) []Violation {
	const name = "skew/maxslack"
	refM := math.Min(in.T, refMinCycleMean(in.N, skew.Constraints(nil, in.Pairs, in.T, 0, in.Setup, in.Hold)))
	m, sched, err := skew.MaxSlack(nil, nil, in.N, in.Pairs, in.T, in.Setup, in.Hold)
	if err != nil {
		return violationf(name, seed, "solver failed (%v) but Karp's minimum cycle mean gives slack %.6g ps", err, refM)
	}
	var out []Violation
	if math.Abs(m-refM) > 1e-9*(1+math.Abs(refM)) {
		out = append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("solver slack %.12g ps vs Karp %.12g ps (|diff| %.3g beyond 1e-9 relative)", m, refM, math.Abs(m-refM))})
	}
	if len(sched) != in.N {
		return append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("schedule has %d entries for %d flip-flops", len(sched), in.N)})
	}
	if v := skew.Verify(sched, skew.Constraints(nil, in.Pairs, in.T, m, in.Setup, in.Hold)); v > skew.Eps {
		out = append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("schedule violates its own constraints by %.3g ps at slack %.12g", v, m)})
	}
	return out
}

// minDeltaTol is refMinDelta's bisection tolerance. The production solver
// takes no tolerance: it lands on the exact minimum, which the reference
// brackets from above to within minDeltaTol.
const minDeltaTol = 1e-4

// refMinDelta binary-searches, to tol, the smallest Delta at which the
// instance's Fishburn system at its slack plus the two anchor arcs per
// flip-flop through a ground node (index N) stays feasible under
// refFeasible. ok is false when the base system is infeasible or no
// feasible Delta was bracketed.
func refMinDelta(in *SkewInstance, tol float64) (delta float64, ok bool) {
	n := in.N
	cons := skew.Constraints(nil, in.Pairs, in.T, in.Slack, in.Setup, in.Hold)
	if _, ok := refFeasible(n, cons); !ok {
		return 0, false
	}
	feas := func(d float64) bool {
		ext := append([]skew.DiffConstraint(nil), cons...)
		for i, a := range in.Anchors {
			ext = append(ext,
				skew.DiffConstraint{U: i, V: n, Bound: a.A + d},
				skew.DiffConstraint{U: n, V: i, Bound: d - a.A - 2*a.TCI})
		}
		_, f := refFeasible(n+1, ext)
		return f
	}
	// Delta >= TCI_i for every flip-flop (sum its two anchor arcs).
	lo := 0.0
	for _, a := range in.Anchors {
		lo = math.Max(lo, a.TCI)
	}
	hi := lo + 1
	for i := 0; !feas(hi); i++ {
		hi = lo + 2*(hi-lo)
		if i > 60 {
			return 0, false
		}
	}
	for hi-lo > tol {
		mid := lo + (hi-lo)/2
		if feas(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// CheckMinDelta differentially tests skew.MinDelta (exact cycle iteration on
// the production kernel) against the textbook Bellman-Ford Delta search. The
// reference returns the feasible end of its final bracket, so the exact
// Delta lies at most minDeltaTol below it: the solver's Delta must fall in
// [refD - minDeltaTol - Eps, refD + Eps], and its schedule must satisfy the
// Fishburn constraints and both anchor bounds of every flip-flop at that
// Delta to within Eps.
func CheckMinDelta(in *SkewInstance, seed int64) []Violation {
	const name = "skew/mindelta"
	refD, refOK := refMinDelta(in, minDeltaTol)
	cons := skew.Constraints(nil, in.Pairs, in.T, in.Slack, in.Setup, in.Hold)
	d, sched, err := skew.MinDelta(nil, nil, in.N, cons, in.Anchors)
	if err != nil {
		if refOK {
			return violationf(name, seed, "solver failed (%v) but the reference finds Delta %.6g ps", err, refD)
		}
		return nil
	}
	if !refOK {
		return violationf(name, seed, "solver returned Delta %.6g ps but the reference finds no feasible Delta", d)
	}
	var out []Violation
	if d < refD-minDeltaTol-skew.Eps || d > refD+skew.Eps {
		out = append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("solver Delta %.9g ps outside [ref - tol - Eps, ref + Eps] around reference %.9g ps", d, refD)})
	}
	if len(sched) != in.N {
		return append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("schedule has %d entries for %d flip-flops", len(sched), in.N)})
	}
	const slop = skew.Eps + 1e-9 // Eps plus float rounding of the rebase
	if v := skew.Verify(sched, cons); v > slop {
		out = append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("schedule violates the difference constraints by %.3g ps", v)})
	}
	for i, a := range in.Anchors {
		if v := math.Max(a.A+2*a.TCI-sched[i], sched[i]-a.A) - d; v > slop {
			out = append(out, Violation{Oracle: name, Seed: seed,
				Detail: fmt.Sprintf("flip-flop %d misses its anchor bounds at Delta %.9g by %.3g ps", i, d, v)})
			break
		}
	}
	return out
}
