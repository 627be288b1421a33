package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// denseAssignLP builds the same relaxation as a generic Problem: one z
// variable, one x per arc, item rows Σx = 1, bin rows ΣCx − z ≤ 0.
func denseAssignLP(arcs [][]AssignArc, nBins int) (*Problem, [][]int, int) {
	prob := NewProblem()
	z := prob.AddVar("z", 1, 0, Inf)
	vars := make([][]int, len(arcs))
	binCoefs := make([][]Coef, nBins)
	for i, row := range arcs {
		vars[i] = make([]int, len(row))
		itemCoefs := make([]Coef, len(row))
		for k, a := range row {
			v := prob.AddVar(fmt.Sprintf("x_%d_%d", i, a.Bin), 0, 0, 1)
			vars[i][k] = v
			itemCoefs[k] = Coef{Var: v, Val: 1}
			binCoefs[a.Bin] = append(binCoefs[a.Bin], Coef{Var: v, Val: a.Load})
		}
		prob.AddConstraint(EQ, 1, itemCoefs...)
	}
	for _, coefs := range binCoefs {
		if len(coefs) == 0 {
			continue
		}
		prob.AddConstraint(LE, 0, append(coefs, Coef{Var: z, Val: -1})...)
	}
	return prob, vars, z
}

func randAssignInstance(rng *rand.Rand, maxItems, maxBins int) ([][]AssignArc, int) {
	nBins := 1 + rng.Intn(maxBins)
	nItems := 1 + rng.Intn(maxItems)
	arcs := make([][]AssignArc, nItems)
	for i := range arcs {
		deg := 1 + rng.Intn(4)
		if deg > nBins {
			deg = nBins
		}
		perm := rng.Perm(nBins)
		for k := 0; k < deg; k++ {
			arcs[i] = append(arcs[i], AssignArc{Bin: perm[k], Load: 0.1 + 10*rng.Float64()})
		}
	}
	return arcs, nBins
}

// checkAssignLPResult validates primal feasibility and the dual certificate
// of an Optimal result: rows sum to one, no bin exceeds Z, λ ≥ 0 with
// Σλ = 1, and strong duality Z = Σ_i min_j C_ij λ_j.
func checkAssignLPResult(t *testing.T, arcs [][]AssignArc, nBins int, res AssignLPResult) {
	t.Helper()
	if res.Status != Optimal {
		t.Fatalf("status %v, want optimal", res.Status)
	}
	loads := make([]float64, nBins)
	for i, row := range arcs {
		sum := 0.0
		for k, a := range row {
			x := res.X[i][k]
			if x < -1e-9 || x > 1+1e-9 {
				t.Fatalf("item %d arc %d: fraction %v outside [0,1]", i, k, x)
			}
			sum += x
			loads[a.Bin] += a.Load * x
		}
		if math.Abs(sum-1) > 1e-7 {
			t.Fatalf("item %d fractions sum to %v, want 1", i, sum)
		}
	}
	for j, l := range loads {
		if l > res.Z+1e-6 {
			t.Fatalf("bin %d load %v exceeds Z %v", j, l, res.Z)
		}
	}
	lsum, bound := 0.0, 0.0
	for j, l := range res.Duals {
		if l < 0 {
			t.Fatalf("dual %d is %v, want >= 0", j, l)
		}
		lsum += l
	}
	if math.Abs(lsum-1) > 1e-7 {
		t.Fatalf("duals sum to %v, want 1", lsum)
	}
	for _, row := range arcs {
		best := math.Inf(1)
		for _, a := range row {
			best = math.Min(best, a.Load*res.Duals[a.Bin])
		}
		bound += best
	}
	if math.Abs(bound-res.Z) > 1e-6*math.Max(1, math.Abs(res.Z)) {
		t.Fatalf("dual bound %v != Z %v (strong duality violated)", bound, res.Z)
	}
}

// TestAssignLPMatchesDense is the core differential test: on random sparse
// instances the GUB simplex optimum must match the dense two-phase simplex
// to 1e-9 relative.
func TestAssignLPMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 400; trial++ {
		arcs, nBins := randAssignInstance(rng, 12, 6)
		res, err := SolveAssignLP(arcs, nBins, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkAssignLPResult(t, arcs, nBins, res)
		prob, _, _ := denseAssignLP(arcs, nBins)
		sol, err := prob.SolveOpts(Options{})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("trial %d: dense solve %v status %v", trial, err, sol.Status)
		}
		if diff := math.Abs(res.Z - sol.Obj); diff > 1e-9*math.Max(1, math.Abs(sol.Obj)) {
			t.Fatalf("trial %d: sparse Z %.12g != dense %.12g (diff %g)", trial, res.Z, sol.Obj, diff)
		}
	}
}

// TestAssignLPMatchesDenseLarge runs a handful of larger sparse instances
// (hundreds of items, duplicate-bin arcs, zero loads) through both solvers.
func TestAssignLPMatchesDenseLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 5; trial++ {
		nBins := 10 + rng.Intn(15)
		nItems := 200 + rng.Intn(200)
		arcs := make([][]AssignArc, nItems)
		for i := range arcs {
			deg := 1 + rng.Intn(6)
			for k := 0; k < deg; k++ {
				load := 10 * rng.Float64()
				if rng.Intn(20) == 0 {
					load = 0 // zero-load arcs must not break the basis algebra
				}
				arcs[i] = append(arcs[i], AssignArc{Bin: rng.Intn(nBins), Load: load})
			}
		}
		res, err := SolveAssignLP(arcs, nBins, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkAssignLPResult(t, arcs, nBins, res)
		prob, _, _ := denseAssignLP(arcs, nBins)
		sol, err := prob.SolveOpts(Options{})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("trial %d: dense solve %v status %v", trial, err, sol.Status)
		}
		if diff := math.Abs(res.Z - sol.Obj); diff > 1e-9*math.Max(1, math.Abs(sol.Obj)) {
			t.Fatalf("trial %d: sparse Z %.12g != dense %.12g (diff %g)", trial, res.Z, sol.Obj, diff)
		}
	}
}

// TestAssignLPParametric is the parametric-search invariant: the optimum z*
// is the exact feasibility threshold, so the system with the extra bound
// z ≤ z*(1+ε) stays feasible while z ≤ z*(1−ε) is infeasible.
func TestAssignLPParametric(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 60; trial++ {
		arcs, nBins := randAssignInstance(rng, 10, 5)
		res, err := SolveAssignLP(arcs, nBins, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Z <= 0 {
			continue // degenerate all-zero-load instance has no threshold
		}
		// ε must sit above the dense solver's phase-1 feasibility slack: a
		// violation of z*·1e-6 spread over rows with O(10) coefficients can
		// pass its tolerance and falsely report the probe feasible.
		const eps = 1e-4
		for _, tc := range []struct {
			cap      float64
			feasible bool
		}{
			{res.Z * (1 + eps), true},
			{res.Z * (1 - eps), false},
		} {
			prob, _, z := denseAssignLP(arcs, nBins)
			prob.AddConstraint(LE, tc.cap, Coef{Var: z, Val: 1})
			sol, err := prob.SolveOpts(Options{})
			if err != nil {
				t.Fatalf("trial %d cap %v: %v", trial, tc.cap, err)
			}
			if got := sol.Status == Optimal; got != tc.feasible {
				t.Fatalf("trial %d: z <= %v reports %v, want feasible=%v (z* = %v)",
					trial, tc.cap, sol.Status, tc.feasible, res.Z)
			}
		}
	}
}

// TestAssignLPNonuniformDuals pins the instance that separates this LP from
// a pure max-flow bottleneck search: item0 {bin0:2, bin1:10}, item1
// {bin1:1}. Any uniform bin pricing certifies at most 1.5, but the true
// optimum is 11/6 with duals (5/6, 1/6).
func TestAssignLPNonuniformDuals(t *testing.T) {
	arcs := [][]AssignArc{
		{{Bin: 0, Load: 2}, {Bin: 1, Load: 10}},
		{{Bin: 1, Load: 1}},
	}
	res, err := SolveAssignLP(arcs, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkAssignLPResult(t, arcs, 2, res)
	if want := 11.0 / 6.0; math.Abs(res.Z-want) > 1e-9 {
		t.Fatalf("Z = %.12g, want 11/6 = %.12g", res.Z, want)
	}
	if math.Abs(res.Duals[0]-5.0/6.0) > 1e-9 || math.Abs(res.Duals[1]-1.0/6.0) > 1e-9 {
		t.Fatalf("duals %v, want (5/6, 1/6)", res.Duals)
	}
}

func TestAssignLPEdgeCases(t *testing.T) {
	t.Run("single bin", func(t *testing.T) {
		arcs := [][]AssignArc{
			{{Bin: 0, Load: 5}, {Bin: 0, Load: 2}},
			{{Bin: 0, Load: 3}},
		}
		res, err := SolveAssignLP(arcs, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkAssignLPResult(t, arcs, 1, res)
		if math.Abs(res.Z-5) > 1e-9 { // cheapest arc per item: 2 + 3
			t.Fatalf("Z = %v, want 5", res.Z)
		}
	})
	t.Run("single item single arc", func(t *testing.T) {
		res, err := SolveAssignLP([][]AssignArc{{{Bin: 2, Load: 7}}}, 4, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkAssignLPResult(t, [][]AssignArc{{{Bin: 2, Load: 7}}}, 4, res)
		if math.Abs(res.Z-7) > 1e-9 {
			t.Fatalf("Z = %v, want 7", res.Z)
		}
	})
	t.Run("empty row is infeasible", func(t *testing.T) {
		res, err := SolveAssignLP([][]AssignArc{{{Bin: 0, Load: 1}}, {}}, 2, Options{})
		if err != nil || res.Status != Infeasible {
			t.Fatalf("got status %v err %v, want infeasible/nil", res.Status, err)
		}
	})
	t.Run("bad bin", func(t *testing.T) {
		if _, err := SolveAssignLP([][]AssignArc{{{Bin: 3, Load: 1}}}, 2, Options{}); err == nil {
			t.Fatal("want error for out-of-range bin")
		}
	})
	t.Run("negative load", func(t *testing.T) {
		if _, err := SolveAssignLP([][]AssignArc{{{Bin: 0, Load: -1}}}, 2, Options{}); err == nil {
			t.Fatal("want error for negative load")
		}
	})
	t.Run("no items", func(t *testing.T) {
		if _, err := SolveAssignLP(nil, 2, Options{}); err == nil {
			t.Fatal("want error for empty instance")
		}
	})
}
