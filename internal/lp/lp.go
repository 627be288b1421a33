// Package lp provides a self-contained linear programming solver (bounded
// variable two-phase revised simplex) and a branch-and-bound integer
// programming solver on top of it.
//
// The paper solves its LP relaxations with Soplex and its ILP baseline with
// GLPK; this package is the stdlib-only substitute for both. The simplex
// keeps variable bounds out of the constraint matrix (essential for the
// assignment LPs, whose 0 <= x_ij <= 1 box would otherwise double the row
// count), and maintains an explicit dense basis inverse with periodic
// refactorization.
//
// Error discipline: model-building mistakes (inverted bounds, constraints
// referencing unknown variables) are caller-data errors. They do not panic;
// the first one is recorded on the Problem and returned — wrapping
// ErrBadProblem — by the next SolveOpts/SolveILP call, so building
// code stays free of per-call error plumbing. Budget exhaustion is reported
// through Solution.Status == IterLimit and ILPSolution.BudgetHit; match
// ErrBudget to classify it when a caller converts statuses to errors.
package lp

import (
	"errors"
	"fmt"
	"math"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/stop"
)

// ErrBudget classifies solves stopped by an iteration, node, or time budget
// rather than by a mathematical outcome.
var ErrBudget = errors.New("lp: budget exceeded")

// Sense is the relational sense of a constraint row.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // <=
	GE              // >=
	EQ              // =
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Inf is the bound used for unbounded variables.
var Inf = math.Inf(1)

// Coef is one nonzero entry of a constraint row.
type Coef struct {
	Var int
	Val float64
}

type constraint struct {
	coefs []Coef
	sense Sense
	rhs   float64
}

// Problem is a linear (or mixed-integer) program in the form
//
//	minimize  c.x
//	subject to A x (<=|=|>=) b,  lo <= x <= hi
//
// built incrementally with AddVar and AddConstraint.
type Problem struct {
	obj      []float64
	lo, hi   []float64
	integer  []bool
	cons     []constraint
	buildErr error // first model-building error; reported at solve time
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem { return &Problem{} }

// AddVar adds a continuous variable with objective coefficient obj and
// bounds [lo, hi], returning its index. Use -Inf/+Inf for free bounds.
// Inverted bounds are recorded as a build error reported by the next solve.
func (p *Problem) AddVar(name string, obj, lo, hi float64) int {
	if lo > hi {
		if p.buildErr == nil {
			p.buildErr = fmt.Errorf("%w: variable %q has lo %v > hi %v", ErrBadProblem, name, lo, hi)
		}
		hi = lo // keep indices consistent; the solve reports buildErr anyway
	}
	p.obj = append(p.obj, obj)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	p.integer = append(p.integer, false)
	return len(p.obj) - 1
}

// AddIntVar adds an integer variable (only honored by SolveILP; Solve treats
// it as continuous).
func (p *Problem) AddIntVar(name string, obj, lo, hi float64) int {
	v := p.AddVar(name, obj, lo, hi)
	p.integer[v] = true
	return v
}

// AddConstraint adds the row sum(coefs) sense rhs. Coefficients referencing
// the same variable twice are summed. A coefficient referencing an unknown
// variable is recorded as a build error reported by the next solve; the row
// is dropped.
func (p *Problem) AddConstraint(sense Sense, rhs float64, coefs ...Coef) int {
	for _, c := range coefs {
		if c.Var < 0 || c.Var >= len(p.obj) {
			if p.buildErr == nil {
				p.buildErr = fmt.Errorf("%w: constraint references unknown variable %d", ErrBadProblem, c.Var)
			}
			return len(p.cons) - 1
		}
	}
	p.cons = append(p.cons, constraint{coefs: coefs, sense: sense, rhs: rhs})
	return len(p.cons) - 1
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// Solution is the result of an LP solve.
type Solution struct {
	Status Status
	Obj    float64
	X      []float64 // structural variable values
	Duals  []float64 // one dual multiplier per constraint row
	Iters  int
}

// defaultTol is the feasibility/optimality tolerance of both simplex
// solvers. The assignment LP's tests reach smaller ones through
// solveAssignLP.
const defaultTol = 1e-9

// iterBudget is the pivot budget of a solve over m rows and n columns.
func iterBudget(m, n int) int { return 50*(m+n) + 10000 }

// ErrBadProblem is returned for structurally invalid problems.
var ErrBadProblem = errors.New("lp: invalid problem")

// Options carries a solve's telemetry and cancellation; the tolerance is
// defaultTol and the pivot budget iterBudget.
type Options struct {
	// Obs receives solver telemetry (solve and pivot counters). Nil records
	// nothing.
	Obs *obs.Registry
	// Stop is the cooperative cancellation token, checked once per simplex
	// pivot. Nil never stops. A fired token ends the solve like an
	// exhausted iteration budget (Status IterLimit with best-effort X) but
	// additionally returns an error wrapping the stop sentinel so callers
	// can distinguish cancellation from a genuine budget.
	Stop *stop.Token
}

// SolveOpts solves the LP relaxation with the two-phase revised simplex.
func (p *Problem) SolveOpts(opts Options) (Solution, error) {
	return p.solveBudget(opts, 0)
}

// solveBudget is SolveOpts under a pivot budget; maxIters <= 0 means
// iterBudget. Tests stop a solve early through it.
func (p *Problem) solveBudget(opts Options, maxIters int) (Solution, error) {
	if err := faultinject.Hook(faultinject.SiteLPSolve); err != nil {
		return Solution{Status: Infeasible}, err
	}
	if p.buildErr != nil {
		return Solution{Status: Infeasible}, p.buildErr
	}
	s, err := newSimplex(p)
	if err != nil {
		return Solution{Status: Infeasible}, err
	}
	if maxIters <= 0 {
		maxIters = iterBudget(s.m, s.n)
	}
	sol, err := s.solve(opts.Stop, maxIters)
	// One record per solve: pivots accumulate in Solution.Iters, so the
	// simplex loop itself stays untouched (and lock-free).
	if reg := opts.Obs; reg != nil {
		reg.Add("lp.simplex.solves", 1)
		reg.Add("lp.simplex.pivots", int64(sol.Iters))
		if sol.Status == IterLimit {
			reg.Add("lp.simplex.iterlimit", 1)
		}
	}
	return sol, err
}

// Feasible reports whether x satisfies all constraints and bounds within tol.
func (p *Problem) Feasible(x []float64, tol float64) error {
	if len(x) != len(p.obj) {
		return fmt.Errorf("%w: x has %d entries, want %d", ErrBadProblem, len(x), len(p.obj))
	}
	for i := range x {
		if x[i] < p.lo[i]-tol || x[i] > p.hi[i]+tol {
			return fmt.Errorf("variable %d=%v outside [%v,%v]", i, x[i], p.lo[i], p.hi[i])
		}
	}
	for i, c := range p.cons {
		lhs := 0.0
		for _, cf := range c.coefs {
			lhs += cf.Val * x[cf.Var]
		}
		switch c.sense {
		case LE:
			if lhs > c.rhs+tol {
				return fmt.Errorf("row %d: %v <= %v violated", i, lhs, c.rhs)
			}
		case GE:
			if lhs < c.rhs-tol {
				return fmt.Errorf("row %d: %v >= %v violated", i, lhs, c.rhs)
			}
		case EQ:
			if math.Abs(lhs-c.rhs) > tol {
				return fmt.Errorf("row %d: %v = %v violated", i, lhs, c.rhs)
			}
		}
	}
	return nil
}
