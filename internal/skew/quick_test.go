package skew

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rotaryclk/internal/lp"
)

// TestQuickFeasibleVsLP: Bellman-Ford feasibility of random difference
// constraint systems must agree with the LP solver's verdict, and any
// returned assignment must satisfy every constraint.
func TestQuickFeasibleVsLP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		var cons []DiffConstraint
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v || rng.Float64() < 0.5 {
					continue
				}
				cons = append(cons, DiffConstraint{U: u, V: v, Bound: float64(rng.Intn(21) - 10)})
			}
		}
		tt, ok := Feasible(n, cons)
		if ok && Verify(tt, cons) > 1e-9 {
			return false
		}
		// LP check: feasibility of {t_U - t_V <= Bound}.
		p := lp.NewProblem()
		vars := make([]int, n)
		for i := range vars {
			vars[i] = p.AddVar("", 0, -lp.Inf, lp.Inf)
		}
		for _, c := range cons {
			p.AddConstraint(lp.LE, c.Bound,
				lp.Coef{Var: vars[c.U], Val: 1}, lp.Coef{Var: vars[c.V], Val: -1})
		}
		sol, err := p.Solve()
		if err != nil {
			return false
		}
		lpFeasible := sol.Status == lp.Optimal || sol.Status == lp.Unbounded
		return ok == lpFeasible
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickMaxSlackMonotone: the max slack never increases when constraints
// tighten (DMax grows).
func TestQuickMaxSlackMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		pairs := buildRandomPairs(rng, n)
		if len(pairs) == 0 {
			return true
		}
		m1, _, err := MaxSlack(nil, nil, n, pairs, 1000, 30, 15)
		if err != nil {
			return false
		}
		worse := append([]SeqPair(nil), pairs...)
		for i := range worse {
			worse[i].DMax += 100
		}
		m2, _, err := MaxSlack(nil, nil, n, worse, 1000, 30, 15)
		if err != nil {
			return false
		}
		return m2 <= m1+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
