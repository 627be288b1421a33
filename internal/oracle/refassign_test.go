package oracle

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/lp"
	"rotaryclk/internal/rotary"
)

// bruteNodeBudget bounds the enumeration tree of one brute-force solve.
// Campaign instances (<= 10 FFs x <= 6 arcs) stay far below it; exceeding
// it skips the comparison instead of guessing.
const bruteNodeBudget = 5_000_000

// arc is one candidate FF→ring edge of the reference model, mirroring the
// production arc universe: per FF the K loop-nearest rings (Manhattan
// distance, ring-index tiebreak), one tapping solve each, cost = stub
// wirelength, cap = stub load.
type arc struct {
	ring int
	cost float64 // stub wirelength, um
	cap  float64 // stub + pin load, fF
}

// deriveArcs independently rebuilds the candidate arc set of an instance.
// It reuses rotary.SolveTap (the tapping solver has its own dense-scan
// oracle in reftap.go) but none of assign's candidate machinery: ring
// selection and ordering are re-derived from the distance definition.
// solverErr reports a SolveTap failure that was not a plain no-solution
// outcome (an injected or internal fault), which callers surface instead of
// treating as infeasibility.
func deriveArcs(in *AssignInstance) (arcs [][]arc, feasible bool, solverErr error) {
	a := in.Array()
	k := in.K
	if k <= 0 {
		k = 6
	}
	if k > len(a.Rings) {
		k = len(a.Rings)
	}
	arcs = make([][]arc, len(in.FFs))
	feasible = true
	for i, ff := range in.FFs {
		type rd struct {
			j int
			d float64
		}
		ds := make([]rd, len(a.Rings))
		for j, r := range a.Rings {
			_, _, d := r.Nearest(ff.Pos)
			ds[j] = rd{j, d}
		}
		sort.SliceStable(ds, func(x, y int) bool {
			if ds[x].d != ds[y].d {
				return ds[x].d < ds[y].d
			}
			return ds[x].j < ds[y].j
		})
		for _, cand := range ds[:k] {
			tap, err := rotary.SolveTap(a.Rings[cand.j], in.Params, ff.Pos, ff.Target)
			if err != nil {
				if !errors.Is(err, rotary.ErrNoTap) {
					solverErr = err
				}
				continue
			}
			arcs[i] = append(arcs[i], arc{ring: cand.j, cost: tap.WireLen, cap: in.Params.StubCap(tap.WireLen)})
		}
		if len(arcs[i]) == 0 {
			feasible = false
		}
	}
	return arcs, feasible, solverErr
}

// bruteMinCost exhaustively enumerates FF→ring choices under the capacity
// limits and returns the minimum total cost. ok is false when no complete
// assignment exists; budgetHit aborts the enumeration (caller skips).
func bruteMinCost(arcs [][]arc, caps []int) (best float64, ok, budgetHit bool) {
	n := len(arcs)
	// Sort each FF's arcs cheapest-first and precompute the suffix sum of
	// per-FF minimum costs for the lower-bound prune.
	sorted := make([][]arc, n)
	for i, as := range arcs {
		s := append([]arc(nil), as...)
		sort.Slice(s, func(x, y int) bool { return s[x].cost < s[y].cost })
		sorted[i] = s
	}
	lb := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		if len(sorted[i]) == 0 {
			return 0, false, false
		}
		lb[i] = lb[i+1] + sorted[i][0].cost
	}
	load := make([]int, len(caps))
	best = math.Inf(1)
	nodes := 0
	var rec func(i int, cur float64) bool
	rec = func(i int, cur float64) bool {
		nodes++
		if nodes > bruteNodeBudget {
			return false
		}
		if cur+lb[i] >= best {
			return true
		}
		if i == n {
			best = cur
			return true
		}
		for _, a := range sorted[i] {
			if load[a.ring] >= caps[a.ring] {
				continue
			}
			load[a.ring]++
			if !rec(i+1, cur+a.cost) {
				return false
			}
			load[a.ring]--
		}
		return true
	}
	if !rec(0, 0) {
		return 0, false, true
	}
	return best, !math.IsInf(best, 1), false
}

// bruteMinMaxCap exhaustively minimizes the maximum per-ring load
// capacitance (no capacity limits, every FF on exactly one ring).
func bruteMinMaxCap(arcs [][]arc, nRings int) (best float64, ok, budgetHit bool) {
	n := len(arcs)
	for i := range arcs {
		if len(arcs[i]) == 0 {
			return 0, false, false
		}
	}
	load := make([]float64, nRings)
	best = math.Inf(1)
	nodes := 0
	var rec func(i int, curMax float64) bool
	rec = func(i int, curMax float64) bool {
		nodes++
		if nodes > bruteNodeBudget {
			return false
		}
		if curMax >= best {
			return true // loads only grow; prune
		}
		if i == n {
			best = curMax
			return true
		}
		for _, a := range arcs[i] {
			old := load[a.ring]
			load[a.ring] += a.cap
			if !rec(i+1, math.Max(curMax, load[a.ring])) {
				return false
			}
			load[a.ring] = old
		}
		return true
	}
	if !rec(0, 0) {
		return 0, false, true
	}
	return best, !math.IsInf(best, 1), false
}

// CheckAssignLP differentially tests the sparse GUB simplex behind
// MinMaxCap's LP relaxation (lp.SolveAssignLP) against an independently
// built dense two-phase simplex on the same arc universe: the optima must
// agree to 1e-9 relative, and the sparse solver's primal/dual certificate
// must validate (fractions sum to one, no bin load exceeds z, duals form a
// probability vector with Σ_i min_j C_ij λ_j = z). Unlike the brute-force
// checks this scales to hundreds of flip-flops, which is what the
// genAssignLarge campaign arm feeds it.
func CheckAssignLP(in *AssignInstance, seed int64) []Violation {
	const name = "assign/lp"
	arcs, feasible, solverErr := deriveArcs(in)
	if solverErr != nil {
		return nil // tapping-solver fault; the tap oracle owns it
	}

	rows := make([][]lp.AssignArc, len(arcs))
	for i, as := range arcs {
		for _, a := range as {
			rows[i] = append(rows[i], lp.AssignArc{Bin: a.ring, Load: a.cap})
		}
	}
	res, err := lp.SolveAssignLP(rows, len(in.Rings), lp.Options{})
	if err != nil {
		return violationf(name, seed, "sparse LP solve failed: %v", err)
	}
	if !feasible {
		if res.Status != lp.Infeasible {
			return violationf(name, seed, "an FF has no feasible arc but the sparse LP reports %v", res.Status)
		}
		return nil
	}
	if res.Status != lp.Optimal {
		return violationf(name, seed, "sparse LP status %v on a feasible instance", res.Status)
	}

	var out []Violation
	// Primal certificate.
	loads := make([]float64, len(in.Rings))
	for i, row := range rows {
		sum := 0.0
		for k, a := range row {
			x := res.X[i][k]
			if x < -1e-9 || x > 1+1e-9 {
				out = append(out, Violation{Oracle: name, Seed: seed,
					Detail: fmt.Sprintf("FF %d arc %d: fraction %.9g outside [0,1]", i, k, x)})
			}
			sum += x
			loads[a.Bin] += a.Load * x
		}
		if math.Abs(sum-1) > 1e-7 {
			out = append(out, Violation{Oracle: name, Seed: seed,
				Detail: fmt.Sprintf("FF %d fractions sum to %.9g, want 1", i, sum)})
		}
	}
	for j, l := range loads {
		if l > res.Z+1e-6 {
			out = append(out, Violation{Oracle: name, Seed: seed,
				Detail: fmt.Sprintf("ring %d load %.9g exceeds reported optimum %.9g", j, l, res.Z)})
		}
	}
	// Dual certificate: λ ≥ 0, Σλ = 1, strong duality.
	lsum, bound := 0.0, 0.0
	for j, l := range res.Duals {
		if l < 0 {
			out = append(out, Violation{Oracle: name, Seed: seed,
				Detail: fmt.Sprintf("dual %d is %.9g, want >= 0", j, l)})
		}
		lsum += l
	}
	if math.Abs(lsum-1) > 1e-7 {
		out = append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("duals sum to %.9g, want 1", lsum)})
	}
	for _, row := range rows {
		best := math.Inf(1)
		for _, a := range row {
			best = math.Min(best, a.Load*res.Duals[a.Bin])
		}
		bound += best
	}
	if !closeRel(bound, res.Z, 1e-6, 1e-6) {
		out = append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("dual bound %.9g != optimum %.9g (strong duality violated)", bound, res.Z)})
	}

	// Independent dense reference on the identical arc data.
	prob := lp.NewProblem()
	z := prob.AddVar("z", 1, 0, lp.Inf)
	binCoefs := make([][]lp.Coef, len(in.Rings))
	for i, row := range rows {
		itemCoefs := make([]lp.Coef, len(row))
		for k, a := range row {
			v := prob.AddVar(fmt.Sprintf("x_%d_%d", i, k), 0, 0, 1)
			itemCoefs[k] = lp.Coef{Var: v, Val: 1}
			binCoefs[a.Bin] = append(binCoefs[a.Bin], lp.Coef{Var: v, Val: a.Load})
		}
		prob.AddConstraint(lp.EQ, 1, itemCoefs...)
	}
	for _, coefs := range binCoefs {
		if len(coefs) == 0 {
			continue
		}
		prob.AddConstraint(lp.LE, 0, append(coefs, lp.Coef{Var: z, Val: -1})...)
	}
	sol, err := prob.SolveOpts(lp.Options{})
	if err != nil || sol.Status != lp.Optimal {
		return append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("dense reference solve failed (err %v, status %v) on a feasible instance", err, sol.Status)})
	}
	if !closeRel(res.Z, sol.Obj, 1e-9, 1e-9) {
		out = append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("sparse optimum %.12g != dense simplex optimum %.12g", res.Z, sol.Obj)})
	}
	return out
}

// CheckMinCost differentially tests assign.MinCost (min-cost max-flow over
// the Fig. 4 network) against the exhaustive reference on the same arc
// universe. Optimality is checked both ways: the solver may neither beat
// nor miss the enumerated optimum.
func CheckMinCost(in *AssignInstance, seed int64) []Violation {
	const name = "assign/mincost"
	arcs, refFeasible, solverErr := deriveArcs(in)
	a, err := assign.MinCost(in.Problem())

	if solverErr != nil {
		// The tapping solver itself failed; the tap oracle owns that
		// discrepancy, and the arc universes here are not comparable.
		return nil
	}
	if !refFeasible {
		if err == nil {
			return violationf(name, seed, "reference finds an FF with no feasible arc, solver returned total %.6g", a.Total)
		}
		return nil
	}
	ref, refOK, budgetHit := bruteMinCost(arcs, in.capacities())
	if budgetHit {
		return nil
	}
	switch {
	case err != nil && refOK:
		return violationf(name, seed, "solver failed (%v) but exhaustive enumeration finds an assignment of total cost %.6g", err, ref)
	case err != nil:
		return nil // consistently infeasible
	case !refOK:
		return violationf(name, seed, "solver returned total %.6g but exhaustive enumeration proves the instance infeasible under capacities", a.Total)
	}
	if !closeRel(a.Total, ref, 1e-9, 1e-6) {
		return violationf(name, seed, "solver total %.9g != exhaustive optimum %.9g", a.Total, ref)
	}
	return nil
}

// CheckMinMaxCap differentially tests assign.MinMaxCap (LP relaxation +
// Fig. 5 greedy rounding) against the exhaustive max-load reference: the LP
// optimum must lower-bound the true ILP optimum, and the rounded solution
// can never beat it.
func CheckMinMaxCap(in *AssignInstance, seed int64) []Violation {
	const name = "assign/minmaxcap"
	arcs, refFeasible, solverErr := deriveArcs(in)
	a, rel, err := assign.MinMaxCap(in.Problem())

	if solverErr != nil || !refFeasible {
		if !refFeasible && err == nil {
			return violationf(name, seed, "reference finds an FF with no feasible arc, solver returned max load %.6g", a.MaxCap)
		}
		return nil
	}
	ref, refOK, budgetHit := bruteMinMaxCap(arcs, len(in.Rings))
	if budgetHit || !refOK {
		return nil
	}
	if err != nil {
		return violationf(name, seed, "solver failed (%v) but exhaustive enumeration finds max load %.6g", err, ref)
	}
	var out []Violation
	const tol = 1e-6
	if rel.LPOpt > ref*(1+1e-9)+tol {
		out = append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("LP relaxation optimum %.9g exceeds the true ILP optimum %.9g (the LP must be a lower bound)", rel.LPOpt, ref)})
	}
	if a.MaxCap < ref*(1-1e-9)-tol {
		out = append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("rounded max load %.9g beats the exhaustive optimum %.9g", a.MaxCap, ref)})
	}
	// Internal consistency: MaxCap must match the loads it summarizes.
	maxLoad := 0.0
	for _, l := range a.Loads {
		maxLoad = math.Max(maxLoad, l)
	}
	if !closeRel(a.MaxCap, maxLoad, 1e-9, 1e-9) {
		out = append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("reported MaxCap %.9g != max of reported Loads %.9g", a.MaxCap, maxLoad)})
	}
	return out
}
