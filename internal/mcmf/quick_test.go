package mcmf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rotaryclk/internal/lp"
)

type arcSpec struct {
	u, v, cap int
	cost      float64
}

func randomNetwork(rng *rand.Rand) (int, []arcSpec) {
	n := 4 + rng.Intn(4)
	var arcs []arcSpec
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || rng.Float64() < 0.55 {
				continue
			}
			arcs = append(arcs, arcSpec{u: u, v: v, cap: 1 + rng.Intn(3), cost: float64(rng.Intn(9))})
		}
	}
	return n, arcs
}

// TestQuickFlowConservation: after any min-cost max-flow solve, flow is
// conserved at every interior node and respects capacities.
func TestQuickFlowConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, arcs := randomNetwork(rng)
		g := NewGraph(n)
		ids := make([]ArcID, len(arcs))
		for i, a := range arcs {
			ids[i] = g.AddArc(a.u, a.v, a.cap, a.cost)
		}
		s, tt := 0, n-1
		flow, _, err := g.MinCostMaxFlow(s, tt)
		if err != nil {
			return false
		}
		net := make([]int, n)
		for i, a := range arcs {
			fl := g.Flow(ids[i])
			if fl < 0 || fl > a.cap {
				return false
			}
			net[a.u] -= fl
			net[a.v] += fl
		}
		for v := 0; v < n; v++ {
			switch v {
			case s:
				if net[v] != -flow {
					return false
				}
			case tt:
				if net[v] != flow {
					return false
				}
			default:
				if net[v] != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickMinCostFlowVsLP cross-checks the combinatorial solver against the
// LP formulation of the same min-cost flow problem: fix the flow value to
// the max flow, minimize cost subject to conservation and capacities.
func TestQuickMinCostFlowVsLP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, arcs := randomNetwork(rng)
		if len(arcs) == 0 {
			return true
		}
		g := NewGraph(n)
		for _, a := range arcs {
			g.AddArc(a.u, a.v, a.cap, a.cost)
		}
		s, tt := 0, n-1
		flow, cost, ferr := g.MinCostMaxFlow(s, tt)
		if ferr != nil {
			return false
		}
		if flow == 0 {
			return cost == 0
		}

		p := lp.NewProblem()
		vars := make([]int, len(arcs))
		for i, a := range arcs {
			vars[i] = p.AddVar("", a.cost, 0, float64(a.cap))
		}
		for v := 0; v < n; v++ {
			var coefs []lp.Coef
			for i, a := range arcs {
				if a.u == v {
					coefs = append(coefs, lp.Coef{Var: vars[i], Val: 1})
				}
				if a.v == v {
					coefs = append(coefs, lp.Coef{Var: vars[i], Val: -1})
				}
			}
			if len(coefs) == 0 {
				continue
			}
			switch v {
			case s:
				p.AddConstraint(lp.EQ, float64(flow), coefs...)
			case tt:
				p.AddConstraint(lp.EQ, -float64(flow), coefs...)
			default:
				p.AddConstraint(lp.EQ, 0, coefs...)
			}
		}
		sol, err := p.SolveOpts(lp.Options{})
		if err != nil || sol.Status != lp.Optimal {
			return false
		}
		return math.Abs(sol.Obj-cost) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickCirculationVsLP cross-checks min-cost circulation (with negative
// arcs) against its LP.
func TestQuickCirculationVsLP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, arcs := randomNetwork(rng)
		if len(arcs) == 0 {
			return true
		}
		// Make roughly a third of the costs negative.
		for i := range arcs {
			if rng.Float64() < 0.35 {
				arcs[i].cost = -arcs[i].cost - 1
			}
		}
		g := NewGraph(n)
		for _, a := range arcs {
			g.AddArc(a.u, a.v, a.cap, a.cost)
		}
		got, cerr := g.MinCostCirculation()
		if cerr != nil {
			return false
		}

		p := lp.NewProblem()
		vars := make([]int, len(arcs))
		for i, a := range arcs {
			vars[i] = p.AddVar("", a.cost, 0, float64(a.cap))
		}
		for v := 0; v < n; v++ {
			var coefs []lp.Coef
			for i, a := range arcs {
				if a.u == v {
					coefs = append(coefs, lp.Coef{Var: vars[i], Val: 1})
				}
				if a.v == v {
					coefs = append(coefs, lp.Coef{Var: vars[i], Val: -1})
				}
			}
			if len(coefs) > 0 {
				p.AddConstraint(lp.EQ, 0, coefs...)
			}
		}
		sol, err := p.SolveOpts(lp.Options{})
		if err != nil || sol.Status != lp.Optimal {
			return false
		}
		return math.Abs(sol.Obj-got) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
