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
// constraint system stays feasible, to tolerance tol. Like the production
// solver, an unconditionally feasible system (acyclic constraint graph) is
// capped at M = T. ok is false when no feasible M was bracketed.
func refMaxSlack(in *SkewInstance, tol float64) (m float64, ok bool) {
	feas := func(M float64) bool {
		_, f := refFeasible(in.N, skew.Constraints(in.Pairs, in.T, M, in.Setup, in.Hold))
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

// CheckSkew differentially tests skew.MaxSlackExact (Karp minimum cycle
// mean plus feasibility recovery) against the binary-search-over-M
// Bellman-Ford reference: the slacks must agree to the search tolerance and
// the production schedule must satisfy its own constraint system.
func CheckSkew(in *SkewInstance, seed int64) []Violation {
	const name = "skew/maxslack"
	const tol = 1e-4
	refM, refOK := refMaxSlack(in, tol)
	m, sched, err := skew.MaxSlackExact(nil, nil, in.N, in.Pairs, in.T, in.Setup, in.Hold)
	if err != nil {
		if refOK {
			return violationf(name, seed, "solver failed (%v) but the reference finds a feasible schedule at slack %.6g ps", err, refM)
		}
		return nil
	}
	if !refOK {
		// The reference could not bracket a feasible slack even at -2^60*T;
		// generated instances never get here, so treat it as a skip.
		return nil
	}
	var out []Violation
	// The production slack may sit up to its own 1e-3 feasibility backoff
	// below the exact optimum; the reference adds its binary-search tol.
	if math.Abs(m-refM) > 5e-3*(1+math.Abs(refM)) {
		out = append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("solver slack %.9g ps vs reference %.9g ps (|diff| %.3g beyond tolerance)", m, refM, math.Abs(m-refM))})
	}
	if len(sched) != in.N {
		return append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("schedule has %d entries for %d flip-flops", len(sched), in.N)})
	}
	// The returned schedule must certify a slack near the claimed one:
	// verify it against the constraint system at m minus the solver's
	// documented backoff ladder, with the shared Eps slop.
	cons := skew.Constraints(in.Pairs, in.T, m-1e-3, in.Setup, in.Hold)
	if v := skew.Verify(sched, cons); v > skew.Eps+1e-9 {
		out = append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("schedule violates its own constraints by %.3g ps at slack %.9g", v, m-1e-3)})
	}
	return out
}

// minDeltaTol is the Delta search tolerance shared by the production call
// and the reference in CheckMinDelta.
const minDeltaTol = 1e-4

// refMinDelta binary-searches, to tol, the smallest Delta at which the
// instance's Fishburn system at its slack plus the two anchor arcs per
// flip-flop through a ground node (index N) stays feasible under
// refFeasible. ok is false when the base system is infeasible or no
// feasible Delta was bracketed.
func refMinDelta(in *SkewInstance, tol float64) (delta float64, ok bool) {
	n := in.N
	cons := skew.Constraints(in.Pairs, in.T, in.Slack, in.Setup, in.Hold)
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

// CheckMinDelta differentially tests skew.MinDelta (the cost-driven Delta
// search on the production kernel) against the textbook Bellman-Ford Delta
// search: the two Deltas must agree to twice the search tolerance, and the
// production schedule must satisfy the Fishburn constraints and both anchor
// bounds of every flip-flop at its Delta to within Eps.
func CheckMinDelta(in *SkewInstance, seed int64) []Violation {
	const name = "skew/mindelta"
	refD, refOK := refMinDelta(in, minDeltaTol)
	cons := skew.Constraints(in.Pairs, in.T, in.Slack, in.Setup, in.Hold)
	d, sched, err := skew.MinDelta(nil, nil, in.N, cons, in.Anchors, minDeltaTol)
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
	if math.Abs(d-refD) > 2*minDeltaTol {
		out = append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("solver Delta %.9g ps vs reference %.9g ps (|diff| %.3g beyond 2*tol)", d, refD, math.Abs(d-refD))})
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
