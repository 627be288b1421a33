package lp

import (
	"fmt"
	"math"
	"time"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/stop"
)

// ILPOptions bounds the branch-and-bound search. The paper's Table I runs a
// generic public-domain ILP solver with a 10-hour budget and reports the
// best incumbent; TimeLimit reproduces that protocol at laptop scale.
//
// When both TimeLimit and MaxNodes are zero, SolveILP applies
// DefaultMaxNodes so no instance can run unbounded; pass MaxNodes < 0 to
// search without a node cap.
type ILPOptions struct {
	TimeLimit time.Duration // 0 = no limit
	MaxNodes  int           // 0 = DefaultMaxNodes when TimeLimit is also 0; < 0 = no limit
	// Obs receives search telemetry (node/incumbent counters) and the
	// per-node LP counters.
	Obs *obs.Registry
	// Stop is the cooperative cancellation token, checked once per node and
	// once per pivot of every per-node LP. A fired token stops the search
	// with BudgetHit set and the incumbent intact, and returns an error
	// wrapping the stop sentinel so cancellation is distinguishable from an
	// exhausted node budget.
	Stop *stop.Token
}

// DefaultMaxNodes is the branch-and-bound node cap applied when ILPOptions
// sets no budget at all. It is far beyond any instance this flow solves
// exactly, but bounds runaway searches on pathological inputs.
const DefaultMaxNodes = 1_000_000

// ILPStatus describes the outcome of an integer solve.
type ILPStatus int

// ILP outcomes.
const (
	ILPOptimal    ILPStatus = iota // search exhausted; incumbent is optimal
	ILPFeasible                    // budget hit with an incumbent in hand
	ILPInfeasible                  // no integer-feasible point exists
	ILPNoSolution                  // budget hit before any incumbent
)

func (s ILPStatus) String() string {
	switch s {
	case ILPOptimal:
		return "optimal"
	case ILPFeasible:
		return "feasible"
	case ILPInfeasible:
		return "infeasible"
	case ILPNoSolution:
		return "no-solution"
	}
	return "unknown"
}

// ILPSolution is the result of SolveILP.
type ILPSolution struct {
	Status ILPStatus
	Obj    float64   // incumbent objective (valid unless NoSolution/Infeasible)
	X      []float64 // incumbent (integer variables integral)
	Bound  float64   // best lower bound proved
	Nodes  int
	// BudgetHit reports that the search stopped on its node or time budget
	// (classify with ErrBudget); Status then says whether an incumbent exists.
	BudgetHit bool
}

const intTol = 1e-6

// SolveILP runs depth-first branch and bound over the LP relaxation,
// branching on the most fractional integer variable. Variables added with
// AddIntVar are forced integral; continuous variables stay continuous.
func (p *Problem) SolveILP(opts ILPOptions) (ILPSolution, error) {
	if err := faultinject.Hook(faultinject.SiteLPSolveILP); err != nil {
		return ILPSolution{Status: ILPNoSolution}, err
	}
	if p.buildErr != nil {
		return ILPSolution{Status: ILPNoSolution}, p.buildErr
	}
	if opts.MaxNodes == 0 && opts.TimeLimit <= 0 {
		opts.MaxNodes = DefaultMaxNodes
	}
	nodeLP := Options{Obs: opts.Obs, Stop: opts.Stop}
	reg := opts.Obs
	incumbents := int64(0)
	deadline := time.Time{}
	if opts.TimeLimit > 0 {
		deadline = time.Now().Add(opts.TimeLimit)
	}

	type node struct {
		lo, hi []float64
	}
	root := node{lo: append([]float64(nil), p.lo...), hi: append([]float64(nil), p.hi...)}
	stack := []node{root}

	res := ILPSolution{Status: ILPNoSolution, Obj: math.Inf(1), Bound: math.Inf(-1)}
	if reg != nil {
		defer func() {
			// Node and incumbent counts are deterministic under node
			// budgets; a TimeLimit makes them wall-clock-dependent, which
			// is why the determinism harnesses always set MaxNodes.
			reg.Add("lp.bb.solves", 1)
			reg.Add("lp.bb.nodes", int64(res.Nodes))
			reg.Add("lp.bb.incumbents", incumbents)
			if res.BudgetHit {
				// Time budgets stop at a wall-clock-dependent node, so the
				// tally is a stat, not a deterministic counter.
				reg.Stat("lp.bb.budgethit", 1)
			}
		}()
	}
	rootBoundSet := false
	sawInfeasibleOnly := true

	for len(stack) > 0 {
		if opts.MaxNodes > 0 && res.Nodes >= opts.MaxNodes {
			res.BudgetHit = true
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			res.BudgetHit = true
			break
		}
		if serr := stop.Check(opts.Stop, faultinject.SiteLPNodeCancel); serr != nil {
			res.BudgetHit = true
			return res, fmt.Errorf("lp: branch and bound: %w", serr)
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res.Nodes++

		sol, err := p.solveWithBounds(nd.lo, nd.hi, nodeLP)
		if err != nil {
			if stop.IsStop(err) {
				// Cancellation surfaced inside a per-node LP: keep the
				// incumbent, mark the budget path, report the stop.
				res.BudgetHit = true
			}
			return res, err
		}
		if sol.Status == Infeasible {
			continue
		}
		if sol.Status == Unbounded {
			// Integer problem unbounded below (rare for our uses): report
			// the relaxation bound and stop.
			res.Bound = math.Inf(-1)
			sawInfeasibleOnly = false
			break
		}
		if sol.Status == IterLimit {
			continue // treat as unexplored; keeps the incumbent valid
		}
		sawInfeasibleOnly = false
		if !rootBoundSet {
			res.Bound = sol.Obj
			rootBoundSet = true
		}
		if sol.Obj >= res.Obj-1e-9 {
			continue // pruned by bound
		}

		// Find the most fractional integer variable.
		branch, frac := -1, intTol
		for v := range p.integer {
			if !p.integer[v] {
				continue
			}
			f := math.Abs(sol.X[v] - math.Round(sol.X[v]))
			if f > frac {
				frac, branch = f, v
			}
		}
		if branch < 0 {
			// Integer feasible: new incumbent.
			res.Obj = sol.Obj
			res.X = roundIntegers(p, sol.X)
			res.Status = ILPFeasible
			incumbents++
			continue
		}

		floorV := math.Floor(sol.X[branch])
		left := node{lo: append([]float64(nil), nd.lo...), hi: append([]float64(nil), nd.hi...)}
		left.hi[branch] = floorV
		right := node{lo: append([]float64(nil), nd.lo...), hi: append([]float64(nil), nd.hi...)}
		right.lo[branch] = floorV + 1
		// DFS: explore the side nearer the fractional value first (pushed
		// last so it pops first).
		if sol.X[branch]-floorV > 0.5 {
			stack = append(stack, left, right)
		} else {
			stack = append(stack, right, left)
		}
	}

	exhausted := len(stack) == 0 && !res.BudgetHit
	switch {
	case res.Status == ILPFeasible && exhausted:
		res.Status = ILPOptimal
		res.Bound = res.Obj
	case res.Status == ILPNoSolution && exhausted && sawInfeasibleOnly:
		res.Status = ILPInfeasible
	}
	return res, nil
}

func roundIntegers(p *Problem, x []float64) []float64 {
	out := append([]float64(nil), x...)
	for v, isInt := range p.integer {
		if isInt {
			out[v] = math.Round(out[v])
		}
	}
	return out
}

// solveWithBounds solves the LP with temporarily overridden variable bounds.
func (p *Problem) solveWithBounds(lo, hi []float64, opts Options) (Solution, error) {
	oldLo, oldHi := p.lo, p.hi
	p.lo, p.hi = lo, hi
	defer func() { p.lo, p.hi = oldLo, oldHi }()
	for v := range lo {
		if lo[v] > hi[v] {
			return Solution{Status: Infeasible}, nil
		}
	}
	return p.SolveOpts(opts)
}
