package mcmf

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// maxFlow solves MinCostMaxFlow and fails the test on a solver error.
func maxFlow(t *testing.T, g *Graph, s, tt int) (int, float64) {
	t.Helper()
	f, c, err := g.MinCostMaxFlow(s, tt)
	if err != nil {
		t.Fatal(err)
	}
	return f, c
}

// circulation solves MinCostCirculation and fails the test on a solver error.
func circulation(t *testing.T, g *Graph) float64 {
	t.Helper()
	c, err := g.MinCostCirculation()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSimplePath(t *testing.T) {
	g := NewGraph(3)
	a := g.AddArc(0, 1, 5, 1)
	b := g.AddArc(1, 2, 3, 2)
	flow, cost := maxFlow(t, g, 0, 2)
	if flow != 3 || cost != 9 {
		t.Errorf("flow/cost = %d/%v, want 3/9", flow, cost)
	}
	if g.Flow(a) != 3 || g.Flow(b) != 3 {
		t.Errorf("arc flows = %d/%d", g.Flow(a), g.Flow(b))
	}
}

func TestChoosesCheaperPath(t *testing.T) {
	// Two parallel 0->1 routes; cheap one saturates first.
	g := NewGraph(4)
	g.AddArc(0, 1, 2, 1) // cheap
	g.AddArc(0, 2, 2, 10)
	g.AddArc(1, 3, 2, 1)
	g.AddArc(2, 3, 2, 1)
	flow, cost := maxFlow(t, g, 0, 3)
	if flow != 4 {
		t.Fatalf("flow = %d, want 4", flow)
	}
	want := 2.0*(1+1) + 2.0*(10+1)
	if math.Abs(cost-want) > 1e-9 {
		t.Errorf("cost = %v, want %v", cost, want)
	}
}

func TestFlowLimit(t *testing.T) {
	g := NewGraph(2)
	g.AddArc(0, 1, 10, 3)
	flow, cost, err := g.MinCostFlow(0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if flow != 4 || cost != 12 {
		t.Errorf("flow/cost = %d/%v, want 4/12", flow, cost)
	}
}

func TestDisconnected(t *testing.T) {
	g := NewGraph(4)
	g.AddArc(0, 1, 5, 1)
	g.AddArc(2, 3, 5, 1)
	flow, _ := maxFlow(t, g, 0, 3)
	if flow != 0 {
		t.Errorf("flow = %d, want 0", flow)
	}
}

func TestSourceEqualsTarget(t *testing.T) {
	g := NewGraph(2)
	g.AddArc(0, 1, 1, 1)
	if f, c := maxFlow(t, g, 0, 0); f != 0 || c != 0 {
		t.Errorf("self flow = %d/%v", f, c)
	}
}

// TestAssignmentOptimal cross-checks the flow-based assignment against brute
// force on small bipartite assignment instances (the paper's Section V
// formulation: each flip-flop to exactly one ring, ring capacity U_j).
func TestAssignmentOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		nFF := 2 + rng.Intn(5) // up to 6
		nR := 1 + rng.Intn(3)  // up to 3
		capU := 1 + rng.Intn(3)
		if nR*capU < nFF {
			continue // infeasible instance; skip
		}
		cost := make([][]float64, nFF)
		for i := range cost {
			cost[i] = make([]float64, nR)
			for j := range cost[i] {
				cost[i][j] = float64(rng.Intn(100))
			}
		}
		// Flow model: s -> ff (cap 1), ff -> ring (cap 1, cost), ring -> t (cap U).
		g := NewGraph(2 + nFF + nR)
		s, tt := 0, 1
		ffArcs := make([][]ArcID, nFF)
		for i := 0; i < nFF; i++ {
			g.AddArc(s, 2+i, 1, 0)
			ffArcs[i] = make([]ArcID, nR)
			for j := 0; j < nR; j++ {
				ffArcs[i][j] = g.AddArc(2+i, 2+nFF+j, 1, cost[i][j])
			}
		}
		for j := 0; j < nR; j++ {
			g.AddArc(2+nFF+j, tt, capU, 0)
		}
		flow, got := maxFlow(t, g, s, tt)
		if flow != nFF {
			t.Fatalf("trial %d: flow %d, want %d", trial, flow, nFF)
		}

		// Brute force over all assignments.
		best := math.Inf(1)
		var rec func(i int, load []int, acc float64)
		rec = func(i int, load []int, acc float64) {
			if acc >= best {
				return
			}
			if i == nFF {
				best = acc
				return
			}
			for j := 0; j < nR; j++ {
				if load[j] < capU {
					load[j]++
					rec(i+1, load, acc+cost[i][j])
					load[j]--
				}
			}
		}
		rec(0, make([]int, nR), 0)
		if math.Abs(got-best) > 1e-9 {
			t.Fatalf("trial %d: flow cost %v, brute force %v", trial, got, best)
		}
		// Each FF must be assigned exactly once.
		for i := 0; i < nFF; i++ {
			n := 0
			for j := 0; j < nR; j++ {
				n += g.Flow(ffArcs[i][j])
			}
			if n != 1 {
				t.Fatalf("trial %d: ff %d assigned %d times", trial, i, n)
			}
		}
	}
}

// requireRejected checks that MinCostMaxFlow(0, last) rejects g with an
// error wrapping ErrNegativeCost and routes nothing first.
func requireRejected(t *testing.T, g *Graph) {
	t.Helper()
	before := g.TotalCost()
	flow, cost, err := g.MinCostMaxFlow(0, g.NumNodes()-1)
	if !errors.Is(err, ErrNegativeCost) {
		t.Fatalf("err = %v, want ErrNegativeCost", err)
	}
	if flow != 0 || cost != 0 || g.TotalCost() != before {
		t.Fatalf("routed %d units (cost %v) before rejecting", flow, cost)
	}
}

func TestNegativeCostFlowViaBellmanFord(t *testing.T) {
	// A negative arc on the only path: MinCostFlow starts from zero
	// potentials and has no Bellman-Ford start, so it rejects the input.
	// Closed with a return arc it is a circulation's job, and
	// MinCostCirculation routes it: 2 units at cost -4.
	path := func() *Graph {
		g := NewGraph(3)
		g.AddArc(0, 1, 2, -5)
		g.AddArc(1, 2, 2, 3)
		return g
	}
	requireRejected(t, path())
	g := path()
	g.AddArc(2, 0, 2, 0)
	if cost := circulation(t, g); math.Abs(cost+4) > 1e-9 {
		t.Errorf("closed path circulation cost = %v, want -4", cost)
	}
}

func TestNegativeCycleIsError(t *testing.T) {
	// A reachable negative cycle 1->2->1 makes the objective unbounded;
	// MinCostFlow must reject the input rather than panic.
	g := NewGraph(4)
	g.AddArc(0, 1, 1, 1)
	g.AddArc(1, 2, 5, -3)
	g.AddArc(2, 1, 5, 1)
	g.AddArc(2, 3, 1, 1)
	requireRejected(t, g)
}

// TestMinCostFlowRejectsNegativeCost: the negative twin of a preloaded arc
// is a negative-cost residual arc too, so MinCostFlow rejects it up front.
func TestMinCostFlowRejectsNegativeCost(t *testing.T) {
	g := NewGraph(2)
	g.Push(g.AddArc(0, 1, 2, 4), 1)
	requireRejected(t, g)
}

func TestCirculationSimpleNegativeCycle(t *testing.T) {
	// Cycle 0->1->2->0 with total cost -3 and bottleneck 2: circulation
	// should push 2 units around it: cost -6.
	g := NewGraph(3)
	g.AddArc(0, 1, 2, -5)
	g.AddArc(1, 2, 4, 1)
	g.AddArc(2, 0, 2, 1)
	cost := circulation(t, g)
	if math.Abs(cost+6) > 1e-9 {
		t.Errorf("circulation cost = %v, want -6", cost)
	}
}

func TestCirculationNoNegativeArcs(t *testing.T) {
	g := NewGraph(3)
	g.AddArc(0, 1, 2, 5)
	g.AddArc(1, 2, 4, 1)
	cost := circulation(t, g)
	if cost != 0 {
		t.Errorf("circulation cost = %v, want 0", cost)
	}
}

func TestCirculationPartialUse(t *testing.T) {
	// Negative arc of capacity 5 but return path capacity 2: only 2 units
	// circulate profitably; the remaining 3 push back (net cost 2*(-4+1)).
	g := NewGraph(2)
	g.AddArc(0, 1, 5, -4)
	g.AddArc(1, 0, 2, 1)
	cost := circulation(t, g)
	if math.Abs(cost+6) > 1e-9 {
		t.Errorf("circulation cost = %v, want -6", cost)
	}
}

func TestTotalCostMatchesReturnedCost(t *testing.T) {
	g := NewGraph(4)
	g.AddArc(0, 1, 3, 2)
	g.AddArc(1, 3, 2, 1)
	g.AddArc(1, 2, 2, 5)
	g.AddArc(2, 3, 2, 0)
	_, cost := maxFlow(t, g, 0, 3)
	if math.Abs(cost-g.TotalCost()) > 1e-9 {
		t.Errorf("returned %v != recomputed %v", cost, g.TotalCost())
	}
}

func TestAddNodeGrows(t *testing.T) {
	g := NewGraph(1)
	v := g.AddNode()
	if v != 1 || g.NumNodes() != 2 {
		t.Errorf("AddNode = %d, NumNodes = %d", v, g.NumNodes())
	}
	a := g.AddArc(0, v, 7, 1.5)
	if g.Capacity(a) != 7 || g.Cost(a) != 1.5 {
		t.Errorf("Capacity/Cost accessors wrong")
	}
}

func TestBadArcPanics(t *testing.T) {
	g := NewGraph(2)
	for _, fn := range []func(){
		func() { g.AddArc(0, 5, 1, 0) },
		func() { g.AddArc(-1, 1, 1, 0) },
		func() { g.AddArc(0, 1, -3, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: on random graphs, SSP cost is never beaten by random feasible
// integral flows of the same value (optimality spot-check).
func TestRandomFlowOptimalitySpotCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 6
		g := NewGraph(n)
		type e struct {
			u, v, c int
			w       float64
		}
		var edges []e
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v || rng.Float64() < 0.5 {
					continue
				}
				ed := e{u, v, 1 + rng.Intn(3), float64(rng.Intn(10))}
				edges = append(edges, ed)
				g.AddArc(ed.u, ed.v, ed.c, ed.w)
			}
		}
		maxF, cost := maxFlow(t, g, 0, n-1)
		if maxF == 0 {
			continue
		}
		// Rebuild and push the same flow greedily along random augmenting
		// paths (any feasible max flow): its cost must be >= SSP cost.
		g2 := NewGraph(n)
		for _, ed := range edges {
			g2.AddArc(ed.u, ed.v, ed.c, ed.w)
		}
		f2, c2 := maxFlow(t, g2, 0, n-1)
		if f2 != maxF {
			t.Fatalf("trial %d: max flow differs %d vs %d", trial, f2, maxF)
		}
		if c2 < cost-1e-9 {
			t.Fatalf("trial %d: second solve cheaper (%v < %v)", trial, c2, cost)
		}
	}
}

// TestResetMatchesFresh refills one graph through Reset and holds every
// solve to a fresh NewGraph of the same arcs, bit for bit: flow, cost and
// the flow on each arc. Every other refill repeats the previous arc count
// with the arcs in reverse order, so a CSR index that survived the Reset
// would route along the previous graph's rows.
func TestResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	reused := NewGraph(0)
	var arcs []arcSpec
	for trial := 0; trial < 300; trial++ {
		n := 0
		if trial%2 == 1 {
			n = reused.NumNodes()
			for i, j := 0, len(arcs)-1; i < j; i, j = i+1, j-1 {
				arcs[i], arcs[j] = arcs[j], arcs[i]
			}
		} else {
			n, arcs = randomNetwork(rng)
		}
		fresh := NewGraph(n)
		reused.Reset(n)
		var ids []ArcID
		for _, a := range arcs {
			id := fresh.AddArc(a.u, a.v, a.cap, a.cost)
			if rid := reused.AddArc(a.u, a.v, a.cap, a.cost); rid != id {
				t.Fatalf("trial %d: arc id %d after Reset, fresh %d", trial, rid, id)
			}
			ids = append(ids, id)
		}
		var want, got []arcSpec
		fresh.ResidualArcs(func(u, v int, c float64) { want = append(want, arcSpec{u, v, 0, c}) })
		reused.ResidualArcs(func(u, v int, c float64) { got = append(got, arcSpec{u, v, 0, c}) })
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: residual arcs after Reset %v, fresh %v", trial, got, want)
		}
		ff, fc := maxFlow(t, fresh, 0, n-1)
		rf, rc := maxFlow(t, reused, 0, n-1)
		if rf != ff || math.Float64bits(rc) != math.Float64bits(fc) {
			t.Fatalf("trial %d: flow %d cost %v after Reset, fresh %d %v", trial, rf, rc, ff, fc)
		}
		for _, id := range ids {
			if reused.Flow(id) != fresh.Flow(id) {
				t.Fatalf("trial %d: arc %d carries %d after Reset, fresh %d", trial, id, reused.Flow(id), fresh.Flow(id))
			}
		}
	}
}
