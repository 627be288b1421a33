package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestIterLimitStatus(t *testing.T) {
	// A nontrivial LP with a budget of one pivot cannot reach optimality;
	// the solver must report the limit instead of a wrong optimum claim.
	rng := rand.New(rand.NewSource(3))
	p := NewProblem()
	n := 12
	vars := make([]int, n)
	for i := range vars {
		vars[i] = p.AddVar("", -1-rng.Float64(), 0, 1)
	}
	for r := 0; r < 6; r++ {
		coefs := make([]Coef, n)
		for i := range coefs {
			coefs[i] = Coef{vars[i], 0.5 + rng.Float64()}
		}
		p.AddConstraint(LE, 2, coefs...)
	}
	sol, err := p.solveBudget(Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit {
		t.Fatalf("status = %v, want iteration-limit", sol.Status)
	}
	// With a sane budget the same problem solves.
	sol, err = p.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("full solve: %v %v", sol.Status, err)
	}
}

// TestDegenerateBudgetStops feeds the simplex a highly degenerate LP (the
// classic cycling-prone shape: many redundant rows active at one vertex, all
// right-hand sides zero except a far-away bound) under a tiny iteration
// budget. Whatever pivoting does — stall, cycle, or crawl — the solver must
// come back with the typed budget status, never hang or misreport optimality.
func TestDegenerateBudgetStops(t *testing.T) {
	p := NewProblem()
	n := 8
	vars := make([]int, n)
	for i := range vars {
		vars[i] = p.AddVar("", -1, 0, Inf)
	}
	// Redundant degenerate rows: every pair constrained to 0 at the origin.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p.AddConstraint(LE, 0, Coef{vars[i], 1}, Coef{vars[j], -1})
			p.AddConstraint(LE, 0, Coef{vars[j], 1}, Coef{vars[i], -1})
		}
	}
	coefs := make([]Coef, n)
	for i := range coefs {
		coefs[i] = Coef{vars[i], 1}
	}
	p.AddConstraint(LE, float64(n), coefs...)
	sol, err := p.solveBudget(Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == Optimal {
		t.Fatalf("2 iterations cannot certify optimality of a %d-row LP", len(p.cons))
	}
	if sol.Status != IterLimit {
		t.Fatalf("status = %v, want typed budget exhaustion", sol.Status)
	}
	// With the automatic budget the same instance solves to optimality.
	full, err := p.Solve()
	if err != nil || full.Status != Optimal {
		t.Fatalf("full solve: %v %v", full.Status, err)
	}
	if math.Abs(full.Obj-(-float64(n))) > 1e-6 {
		t.Fatalf("obj = %v, want %v", full.Obj, -float64(n))
	}
}

// TestILPNodeBudgetTyped forces branch-and-bound to stop on MaxNodes and
// checks the typed budget indicator; the un-budgeted solve proves more nodes
// were genuinely needed.
func TestILPNodeBudgetTyped(t *testing.T) {
	build := func() *Problem {
		p := NewProblem()
		n := 10
		coefs := make([]Coef, n)
		for i := 0; i < n; i++ {
			v := p.AddIntVar("", -(1 + float64(i%3)), 0, 1)
			coefs[i] = Coef{v, 2 + float64(i%2)}
		}
		p.AddConstraint(LE, 7.5, coefs...)
		return p
	}
	capped, err := build().SolveILP(ILPOptions{MaxNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !capped.BudgetHit {
		t.Fatalf("MaxNodes=2 solve did not report BudgetHit (status %v, %d nodes)", capped.Status, capped.Nodes)
	}
	if capped.Status == ILPOptimal {
		t.Fatal("budget-stopped search must not claim optimality")
	}
	free, err := build().SolveILP(ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if free.Status != ILPOptimal || free.BudgetHit {
		t.Fatalf("default budget solve: status %v budgetHit %v", free.Status, free.BudgetHit)
	}
	if free.Nodes <= 2 {
		t.Fatalf("instance too easy for the budget test: %d nodes", free.Nodes)
	}
}

// TestOptionsNormalization pins the fixed tolerance and the automatic
// pivot budget that every solve runs under.
func TestOptionsNormalization(t *testing.T) {
	if defaultTol != 1e-9 {
		t.Errorf("defaultTol = %v", defaultTol)
	}
	if got := iterBudget(10, 20); got != 50*30+10000 {
		t.Errorf("iterBudget(10, 20) = %v", got)
	}
}

func TestDualsReturned(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", -1, 0, Inf)
	p.AddConstraint(LE, 4, Coef{x, 2})
	sol, err := p.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatal(err)
	}
	if len(sol.Duals) != 1 {
		t.Fatalf("duals = %v", sol.Duals)
	}
	// Strong duality on this one-row LP: obj = y * b.
	if math.Abs(sol.Obj-sol.Duals[0]*4) > 1e-9 {
		t.Errorf("duality gap: obj %v vs y*b %v", sol.Obj, sol.Duals[0]*4)
	}
}

func TestAddVarBadBoundsDeferredError(t *testing.T) {
	p := NewProblem()
	p.AddVar("bad", 0, 2, 1)
	if _, err := p.Solve(); !errors.Is(err, ErrBadProblem) {
		t.Fatalf("Solve err = %v, want ErrBadProblem", err)
	}
	if _, err := p.SolveILP(ILPOptions{}); !errors.Is(err, ErrBadProblem) {
		t.Fatalf("SolveILP err = %v, want ErrBadProblem", err)
	}
}

func TestAddConstraintUnknownVarDeferredError(t *testing.T) {
	p := NewProblem()
	p.AddConstraint(LE, 1, Coef{Var: 5, Val: 1})
	if _, err := p.Solve(); !errors.Is(err, ErrBadProblem) {
		t.Fatalf("Solve err = %v, want ErrBadProblem", err)
	}
}
