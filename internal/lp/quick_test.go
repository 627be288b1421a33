package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomLP builds a bounded random LP that is feasible at x = lo (all
// constraints have RHS at least the value at the lower-bound corner).
func randomLP(rng *rand.Rand) (*Problem, []float64, [][]float64, []float64) {
	n := 2 + rng.Intn(4)
	m := 1 + rng.Intn(4)
	p := NewProblem()
	obj := make([]float64, n)
	for i := 0; i < n; i++ {
		obj[i] = rng.NormFloat64()
		p.AddVar("", obj[i], 0, 1+rng.Float64()*3)
	}
	rows := make([][]float64, m)
	rhs := make([]float64, m)
	for r := 0; r < m; r++ {
		rows[r] = make([]float64, n)
		coefs := make([]Coef, n)
		atLo := 0.0
		for i := 0; i < n; i++ {
			rows[r][i] = rng.NormFloat64()
			coefs[i] = Coef{i, rows[r][i]}
		}
		rhs[r] = atLo + rng.Float64()*3 // feasible at the origin corner
		p.AddConstraint(LE, rhs[r], coefs...)
	}
	return p, obj, rows, rhs
}

// TestQuickLPOptimalityCertificate: for random feasible LPs, the returned
// point is feasible and no random feasible point beats it.
func TestQuickLPOptimalityCertificate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, obj, rows, rhs := randomLP(rng)
		sol, err := p.Solve()
		if err != nil {
			return false
		}
		if sol.Status != Optimal {
			return true // unbounded/infeasible random instances are fine
		}
		if p.Feasible(sol.X, 1e-6) != nil {
			return false
		}
		n := len(obj)
		for trial := 0; trial < 300; trial++ {
			x := make([]float64, n)
			v := 0.0
			for i := range x {
				x[i] = rng.Float64() * (p.hi[i])
				v += obj[i] * x[i]
			}
			ok := true
			for r := range rows {
				lhs := 0.0
				for i := range x {
					lhs += rows[r][i] * x[i]
				}
				if lhs > rhs[r]+1e-12 {
					ok = false
					break
				}
			}
			if ok && v < sol.Obj-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickILPAgainstEnumeration: branch & bound equals exhaustive
// enumeration on random small pure-binary ILPs.
func TestQuickILPAgainstEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4) // up to 5 binaries
		m := 1 + rng.Intn(3)
		p := NewProblem()
		obj := make([]float64, n)
		for i := 0; i < n; i++ {
			obj[i] = math.Round(rng.NormFloat64() * 10)
			p.AddIntVar("", obj[i], 0, 1)
		}
		rows := make([][]float64, m)
		rhs := make([]float64, m)
		for r := 0; r < m; r++ {
			rows[r] = make([]float64, n)
			coefs := make([]Coef, n)
			for i := 0; i < n; i++ {
				rows[r][i] = math.Round(rng.NormFloat64() * 5)
				coefs[i] = Coef{i, rows[r][i]}
			}
			rhs[r] = math.Round(rng.Float64() * 8)
			p.AddConstraint(LE, rhs[r], coefs...)
		}
		sol, err := p.SolveILP(ILPOptions{})
		if err != nil {
			return false
		}
		// Enumerate all 2^n assignments.
		best := math.Inf(1)
		for mask := 0; mask < 1<<n; mask++ {
			v := 0.0
			ok := true
			for r := 0; r < m && ok; r++ {
				lhs := 0.0
				for i := 0; i < n; i++ {
					if mask&(1<<i) != 0 {
						lhs += rows[r][i]
					}
				}
				if lhs > rhs[r]+1e-9 {
					ok = false
				}
			}
			if !ok {
				continue
			}
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					v += obj[i]
				}
			}
			if v < best {
				best = v
			}
		}
		if math.IsInf(best, 1) {
			return sol.Status == ILPInfeasible
		}
		return sol.Status == ILPOptimal && math.Abs(sol.Obj-best) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickEqualityLPs: random LPs with equality rows anchored at a known
// feasible point must report Optimal with objective <= that point's value.
func TestQuickEqualityLPs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(3)
		p := NewProblem()
		x0 := make([]float64, n)
		for i := 0; i < n; i++ {
			x0[i] = rng.Float64() * 2
			p.AddVar("", rng.NormFloat64(), 0, 4)
		}
		// Two equality rows passing through x0.
		for r := 0; r < 2; r++ {
			coefs := make([]Coef, n)
			rhsv := 0.0
			for i := 0; i < n; i++ {
				a := rng.NormFloat64()
				coefs[i] = Coef{i, a}
				rhsv += a * x0[i]
			}
			p.AddConstraint(EQ, rhsv, coefs...)
		}
		sol, err := p.Solve()
		if err != nil || sol.Status != Optimal {
			return false // x0 is feasible, so the LP must be solvable
		}
		if p.Feasible(sol.X, 1e-6) != nil {
			return false
		}
		x0Obj := 0.0
		for i, c := range p.obj {
			x0Obj += c * x0[i]
		}
		return sol.Obj <= x0Obj+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
