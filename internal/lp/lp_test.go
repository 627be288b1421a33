package lp

import (
	"math"
	"math/rand"
	"testing"
)

func solveOK(t *testing.T, p *Problem) Solution {
	t.Helper()
	sol, err := p.SolveOpts(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if err := p.Feasible(sol.X, 1e-6); err != nil {
		t.Fatalf("solution infeasible: %v", err)
	}
	return sol
}

func TestSimplexTextbook2D(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (classic Dantzig).
	// Optimum: x=2, y=6, obj=36.
	p := NewProblem()
	x := p.AddVar("x", -3, 0, Inf)
	y := p.AddVar("y", -5, 0, Inf)
	p.AddConstraint(LE, 4, Coef{x, 1})
	p.AddConstraint(LE, 12, Coef{y, 2})
	p.AddConstraint(LE, 18, Coef{x, 3}, Coef{y, 2})
	sol := solveOK(t, p)
	if math.Abs(sol.Obj+36) > 1e-7 {
		t.Errorf("obj = %v, want -36", sol.Obj)
	}
	if math.Abs(sol.X[x]-2) > 1e-7 || math.Abs(sol.X[y]-6) > 1e-7 {
		t.Errorf("x = %v, want [2 6]", sol.X)
	}
}

func TestSimplexEquality(t *testing.T) {
	// min x + 2y s.t. x + y = 10, x - y >= 2, x,y >= 0. Optimum x=10, y=0? check:
	// x+y=10, x-y>=2 → y <= 4. min x+2y = (10-y)+2y = 10+y → y=0, x=10, obj=10.
	p := NewProblem()
	x := p.AddVar("x", 1, 0, Inf)
	y := p.AddVar("y", 2, 0, Inf)
	p.AddConstraint(EQ, 10, Coef{x, 1}, Coef{y, 1})
	p.AddConstraint(GE, 2, Coef{x, 1}, Coef{y, -1})
	sol := solveOK(t, p)
	if math.Abs(sol.Obj-10) > 1e-7 {
		t.Errorf("obj = %v, want 10", sol.Obj)
	}
}

func TestSimplexBoundedVars(t *testing.T) {
	// min -x - y with 0<=x<=3, 0<=y<=2, x + y <= 4. Optimum (3,1) or (2,2): obj=-4.
	p := NewProblem()
	x := p.AddVar("x", -1, 0, 3)
	y := p.AddVar("y", -1, 0, 2)
	p.AddConstraint(LE, 4, Coef{x, 1}, Coef{y, 1})
	sol := solveOK(t, p)
	if math.Abs(sol.Obj+4) > 1e-7 {
		t.Errorf("obj = %v, want -4", sol.Obj)
	}
}

func TestSimplexFreeVariable(t *testing.T) {
	// min x s.t. x >= -5 encoded as a free var and a GE row.
	p := NewProblem()
	x := p.AddVar("x", 1, math.Inf(-1), Inf)
	p.AddConstraint(GE, -5, Coef{x, 1})
	sol := solveOK(t, p)
	if math.Abs(sol.X[x]+5) > 1e-7 {
		t.Errorf("x = %v, want -5", sol.X[x])
	}
}

func TestSimplexInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 1, 0, Inf)
	p.AddConstraint(LE, 1, Coef{x, 1})
	p.AddConstraint(GE, 2, Coef{x, 1})
	sol, err := p.SolveOpts(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestSimplexUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", -1, 0, Inf)
	p.AddConstraint(GE, 0, Coef{x, 1})
	sol, err := p.SolveOpts(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestSimplexNegativeRHS(t *testing.T) {
	// min x+y s.t. -x - y <= -3 (i.e. x+y >= 3), x,y in [0,10].
	p := NewProblem()
	x := p.AddVar("x", 1, 0, 10)
	y := p.AddVar("y", 1, 0, 10)
	p.AddConstraint(LE, -3, Coef{x, -1}, Coef{y, -1})
	sol := solveOK(t, p)
	if math.Abs(sol.Obj-3) > 1e-7 {
		t.Errorf("obj = %v, want 3", sol.Obj)
	}
}

func TestSimplexDegenerate(t *testing.T) {
	// A degenerate LP known to cycle under naive Dantzig (Beale's example).
	p := NewProblem()
	x1 := p.AddVar("x1", -0.75, 0, Inf)
	x2 := p.AddVar("x2", 150, 0, Inf)
	x3 := p.AddVar("x3", -0.02, 0, Inf)
	x4 := p.AddVar("x4", 6, 0, Inf)
	p.AddConstraint(LE, 0, Coef{x1, 0.25}, Coef{x2, -60}, Coef{x3, -0.04}, Coef{x4, 9})
	p.AddConstraint(LE, 0, Coef{x1, 0.5}, Coef{x2, -90}, Coef{x3, -0.02}, Coef{x4, 3})
	p.AddConstraint(LE, 1, Coef{x3, 1})
	sol := solveOK(t, p)
	if math.Abs(sol.Obj+0.05) > 1e-7 {
		t.Errorf("obj = %v, want -0.05", sol.Obj)
	}
}

func TestSimplexDuplicateCoefsMerged(t *testing.T) {
	// x + x <= 4 must behave as 2x <= 4.
	p := NewProblem()
	x := p.AddVar("x", -1, 0, Inf)
	p.AddConstraint(LE, 4, Coef{x, 1}, Coef{x, 1})
	sol := solveOK(t, p)
	if math.Abs(sol.X[x]-2) > 1e-7 {
		t.Errorf("x = %v, want 2", sol.X[x])
	}
}

func TestSimplexFixedVariable(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", -1, 2, 2) // pinned at 2
	y := p.AddVar("y", -1, 0, Inf)
	p.AddConstraint(LE, 5, Coef{x, 1}, Coef{y, 1})
	sol := solveOK(t, p)
	if math.Abs(sol.X[x]-2) > 1e-7 || math.Abs(sol.X[y]-3) > 1e-7 {
		t.Errorf("x = %v, want [2 3]", sol.X)
	}
}

func TestSimplexEmptyProblem(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 1, 0, 5)
	sol := solveOK(t, p) // no constraints at all
	if sol.X[x] != 0 {
		t.Errorf("x = %v, want 0", sol.X[x])
	}
}

// TestSimplexRandomVsBruteForce cross-checks small random LPs against brute
// force over the vertices of the box (objective restricted to box-feasible
// problems where constraint rows only cut corners off).
func TestSimplexRandomVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(3)
		m := 1 + rng.Intn(3)
		p := NewProblem()
		obj := make([]float64, n)
		for i := 0; i < n; i++ {
			obj[i] = rng.Float64()*4 - 2
			p.AddVar("", obj[i], 0, 1)
		}
		rows := make([][]float64, m)
		rhs := make([]float64, m)
		for r := 0; r < m; r++ {
			rows[r] = make([]float64, n)
			coefs := make([]Coef, n)
			for i := 0; i < n; i++ {
				rows[r][i] = rng.Float64() * 2
				coefs[i] = Coef{i, rows[r][i]}
			}
			rhs[r] = rng.Float64() * float64(n) // always feasible at x=0
			p.AddConstraint(LE, rhs[r], coefs...)
		}
		sol, err := p.SolveOpts(Options{})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("trial %d: %v %v", trial, sol.Status, err)
		}
		if err := p.Feasible(sol.X, 1e-6); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Brute force: sample the box densely and keep feasible minimum.
		// (Vertex enumeration over box corners plus constraint boundaries
		// is approximated by dense random sampling; the LP optimum must be
		// <= every feasible sample.)
		for s := 0; s < 2000; s++ {
			x := make([]float64, n)
			v := 0.0
			for i := 0; i < n; i++ {
				x[i] = rng.Float64()
				v += obj[i] * x[i]
			}
			ok := true
			for r := 0; r < m; r++ {
				lhs := 0.0
				for i := 0; i < n; i++ {
					lhs += rows[r][i] * x[i]
				}
				if lhs > rhs[r] {
					ok = false
					break
				}
			}
			if ok && v < sol.Obj-1e-6 {
				t.Fatalf("trial %d: sample %v beats LP optimum %v", trial, v, sol.Obj)
			}
		}
	}
}

func TestSimplexMediumRandomFeasibility(t *testing.T) {
	// Larger random assignment-shaped LPs: every solve must return a
	// feasible optimal point with objective <= any greedy feasible point.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		nItems, nBins := 30, 5
		p := NewProblem()
		cost := make([][]float64, nItems)
		vars := make([][]int, nItems)
		for i := 0; i < nItems; i++ {
			cost[i] = make([]float64, nBins)
			vars[i] = make([]int, nBins)
			coefs := make([]Coef, nBins)
			for j := 0; j < nBins; j++ {
				cost[i][j] = rng.Float64() * 10
				vars[i][j] = p.AddVar("", cost[i][j], 0, 1)
				coefs[j] = Coef{vars[i][j], 1}
			}
			p.AddConstraint(EQ, 1, coefs...)
		}
		for j := 0; j < nBins; j++ {
			coefs := make([]Coef, nItems)
			for i := 0; i < nItems; i++ {
				coefs[i] = Coef{vars[i][j], 1}
			}
			p.AddConstraint(LE, float64(nItems/nBins+1), coefs...)
		}
		sol := solveOK(t, p)
		// LP optimum must not exceed the min-cost column sum (a lower bound
		// certificate the other way: obj >= sum_i min_j cost).
		lb := 0.0
		for i := 0; i < nItems; i++ {
			best := math.Inf(1)
			for j := 0; j < nBins; j++ {
				if cost[i][j] < best {
					best = cost[i][j]
				}
			}
			lb += best
		}
		if sol.Obj < lb-1e-6 {
			t.Fatalf("trial %d: obj %v below certified bound %v", trial, sol.Obj, lb)
		}
	}
}

func TestILPKnapsack(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary.
	// Optimum: a=0,b=1,c=1 → 20.
	p := NewProblem()
	a := p.AddIntVar("a", -10, 0, 1)
	b := p.AddIntVar("b", -13, 0, 1)
	c := p.AddIntVar("c", -7, 0, 1)
	p.AddConstraint(LE, 6, Coef{a, 3}, Coef{b, 4}, Coef{c, 2})
	sol, err := p.SolveILP(ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != ILPOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Obj+20) > 1e-6 {
		t.Errorf("obj = %v, want -20 (X=%v)", sol.Obj, sol.X)
	}
	for _, v := range sol.X {
		if math.Abs(v-math.Round(v)) > 1e-9 {
			t.Errorf("non-integral solution %v", sol.X)
		}
	}
}

func TestILPInfeasible(t *testing.T) {
	p := NewProblem()
	a := p.AddIntVar("a", 1, 0, 1)
	p.AddConstraint(GE, 2, Coef{a, 1})
	sol, err := p.SolveILP(ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != ILPInfeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestILPGapToRelaxation(t *testing.T) {
	// Fractional LP relaxation of a covering problem has a strictly better
	// bound than the integer optimum; B&B must still find the ILP optimum
	// and report Bound <= Obj.
	p := NewProblem()
	// min a+b+c s.t. a+b>=1, b+c>=1, a+c>=1 binary. LP opt=1.5, ILP opt=2.
	a := p.AddIntVar("a", 1, 0, 1)
	b := p.AddIntVar("b", 1, 0, 1)
	c := p.AddIntVar("c", 1, 0, 1)
	p.AddConstraint(GE, 1, Coef{a, 1}, Coef{b, 1})
	p.AddConstraint(GE, 1, Coef{b, 1}, Coef{c, 1})
	p.AddConstraint(GE, 1, Coef{a, 1}, Coef{c, 1})
	sol, err := p.SolveILP(ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != ILPOptimal || math.Abs(sol.Obj-2) > 1e-6 {
		t.Fatalf("sol = %+v, want obj 2", sol)
	}
	if sol.Bound > sol.Obj+1e-9 {
		t.Errorf("bound %v exceeds incumbent %v", sol.Bound, sol.Obj)
	}
}

func TestILPNodeBudget(t *testing.T) {
	// A 12-var assignment ILP with a 1-node budget: must not claim optimal.
	rng := rand.New(rand.NewSource(3))
	p := NewProblem()
	var vars [4][3]int
	for i := 0; i < 4; i++ {
		coefs := make([]Coef, 3)
		for j := 0; j < 3; j++ {
			vars[i][j] = p.AddIntVar("", rng.Float64(), 0, 1)
			coefs[j] = Coef{vars[i][j], 1}
		}
		p.AddConstraint(EQ, 1, coefs...)
	}
	sol, err := p.SolveILP(ILPOptions{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == ILPOptimal && sol.Nodes <= 1 {
		// Possible only if the root LP was already integral; verify.
		if sol.X == nil {
			t.Errorf("claimed optimal with no solution after 1 node")
		}
	}
}

func TestILPMixedInteger(t *testing.T) {
	// min -x - 2y, x integer in [0,3], y continuous in [0, 2.5], x + y <= 4.
	// Best: x=3 (integer), y=1 → obj=-5. (x=1.5 forbidden.)
	p := NewProblem()
	x := p.AddIntVar("x", -1, 0, 3)
	y := p.AddVar("y", -2, 0, 2.5)
	p.AddConstraint(LE, 4, Coef{x, 1}, Coef{y, 1})
	sol, err := p.SolveILP(ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != ILPOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	want := -6.5 // x=2, y=2.5 → -2-5 = -7? check: x=2,y=2 -> -6; x=1.5 no. x=2,y=2.5 sum=4.5>4 no. x=1,y=2.5: -6. x=3,y=1: -5. x=2,y=2: -6. x=1.5? not int. Best -6.5: x=1.5 invalid... recompute.
	_ = want
	// Enumerate: x in {0..3}, y = min(2.5, 4-x): obj = -x - 2*min(2.5,4-x).
	best := math.Inf(1)
	for xi := 0.0; xi <= 3; xi++ {
		yv := math.Min(2.5, 4-xi)
		if v := -xi - 2*yv; v < best {
			best = v
		}
	}
	if math.Abs(sol.Obj-best) > 1e-6 {
		t.Errorf("obj = %v, want %v", sol.Obj, best)
	}
}

func TestFeasibleChecker(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 1, 0, 1)
	p.AddConstraint(EQ, 1, Coef{x, 2})
	if err := p.Feasible([]float64{0.5}, 1e-9); err != nil {
		t.Errorf("0.5 should be feasible: %v", err)
	}
	if err := p.Feasible([]float64{0.4}, 1e-9); err == nil {
		t.Error("0.4 should violate equality")
	}
	if err := p.Feasible([]float64{1.5}, 1e-9); err == nil {
		t.Error("1.5 should violate bound")
	}
	if err := p.Feasible([]float64{0, 0}, 1e-9); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestSenseStrings(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Error("sense strings wrong")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" {
		t.Error("status strings wrong")
	}
	if ILPOptimal.String() != "optimal" || ILPNoSolution.String() != "no-solution" {
		t.Error("ILP status strings wrong")
	}
}
