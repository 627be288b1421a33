package lp

import (
	"math"
	"math/rand"
	"testing"
)

// buildAssignILP constructs the Section VI min-max-load shape used by the
// flow's greedy rounding: binary x_ij (flip-flop i on ring j), one
// assignment row per flip-flop, a load row per ring tied to the objective
// variable z, and a per-ring capacity row.
func buildAssignILP(rng *rand.Rand, nFF, nR int) *Problem {
	p := NewProblem()
	z := p.AddVar("z", 1, 0, Inf)
	x := make([][]int, nFF)
	caps := make([][]Coef, nR)
	loads := make([][]Coef, nR)
	for i := 0; i < nFF; i++ {
		row := make([]Coef, nR)
		x[i] = make([]int, nR)
		for j := 0; j < nR; j++ {
			x[i][j] = p.AddIntVar("", 0, 0, 1)
			row[j] = Coef{x[i][j], 1}
			caps[j] = append(caps[j], Coef{x[i][j], 1})
			loads[j] = append(loads[j], Coef{x[i][j], 8 + rng.Float64()*120}) // stub load, fF
		}
		p.AddConstraint(EQ, 1, row...)
	}
	u := nFF/nR + 1 + rng.Intn(2)
	for j := 0; j < nR; j++ {
		p.AddConstraint(LE, float64(u), caps[j]...)
		p.AddConstraint(LE, 0, append(append([]Coef(nil), loads[j]...), Coef{z, -1})...)
	}
	return p
}

// FuzzILPRound drives randomized LP-relaxation + rounding instances through
// the branch-and-bound solver and asserts the rounding contract the flow
// depends on: any incumbent is feasible (capacity rows included), its
// integer variables are integral, and its objective never beats the LP
// relaxation bound (the relaxation is a true lower bound of the rounded
// solution).
func FuzzILPRound(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2))
	f.Add(int64(7), uint8(5), uint8(3))
	f.Add(int64(42), uint8(1), uint8(1))
	f.Add(int64(-9), uint8(8), uint8(4))
	f.Add(int64(123456789), uint8(6), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nFFr, nRr uint8) {
		nFF := 1 + int(nFFr%6)
		nR := 1 + int(nRr%4)
		rng := rand.New(rand.NewSource(seed))
		p := buildAssignILP(rng, nFF, nR)

		rel, err := p.SolveOpts(Options{})
		if err != nil || rel.Status != Optimal {
			return // infeasible/degenerate random instances are not the contract
		}
		isol, err := p.SolveILP(ILPOptions{MaxNodes: 20000})
		if err != nil {
			t.Fatalf("SolveILP error on a relaxation-feasible instance: %v", err)
		}
		if isol.Status != ILPOptimal && isol.Status != ILPFeasible {
			return // budget hit before an incumbent, or integer-infeasible
		}
		if ferr := p.Feasible(isol.X, 1e-6); ferr != nil {
			t.Fatalf("incumbent violates a constraint: %v (X=%v)", ferr, isol.X)
		}
		for v, isInt := range p.integer {
			if isInt && math.Abs(isol.X[v]-math.Round(isol.X[v])) > 1e-6 {
				t.Fatalf("integer variable %d is fractional: %v", v, isol.X[v])
			}
		}
		tol := 1e-6 * (1 + math.Abs(rel.Obj))
		if isol.Obj < rel.Obj-tol {
			t.Fatalf("rounded objective %.9g beats the LP relaxation bound %.9g", isol.Obj, rel.Obj)
		}
		if isol.Bound > isol.Obj+tol {
			t.Fatalf("proved bound %.9g exceeds the incumbent objective %.9g", isol.Bound, isol.Obj)
		}
		if isol.Status == ILPOptimal && isol.Obj+tol < isol.Bound {
			t.Fatalf("optimal status with objective %.9g below bound %.9g", isol.Obj, isol.Bound)
		}
	})
}
