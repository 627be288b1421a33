package mcmf

import (
	"math"
	"testing"

	"rotaryclk/internal/obs"
)

// assignGraph builds the Fig.-4-shaped assignment network: source -> ffs
// (cap 1) -> candidate rings (cost per arc) -> sink (ring capacity).
func assignGraph(costs [][]float64, ringCap []int) (*Graph, int, int, [][]ArcID) {
	nFF, nR := len(costs), len(ringCap)
	g := NewGraph(2 + nFF + nR)
	s, t := 0, 1
	for i := 0; i < nFF; i++ {
		g.AddArc(s, 2+i, 1, 0)
	}
	arcs := make([][]ArcID, nFF)
	for i, row := range costs {
		arcs[i] = make([]ArcID, nR)
		for j, c := range row {
			if math.IsInf(c, 1) {
				arcs[i][j] = -1
				continue
			}
			arcs[i][j] = g.AddArc(2+i, 2+nFF+j, 1, c)
		}
	}
	for j, u := range ringCap {
		g.AddArc(2+nFF+j, t, u, 0)
	}
	return g, s, t, arcs
}

func TestPushMovesCapacity(t *testing.T) {
	g := NewGraph(2)
	a := g.AddArc(0, 1, 3, 2.5)
	g.Push(a, 2)
	if got := g.Flow(a); got != 2 {
		t.Fatalf("flow after push = %d, want 2", got)
	}
	if got := g.Capacity(a); got != 3 {
		t.Fatalf("original capacity changed to %d", got)
	}
	if got := totalCost(g); got != 5 {
		t.Fatalf("total cost = %v, want 5", got)
	}
	g.Push(a, 1)
	if got := g.Flow(a); got != 3 {
		t.Fatalf("flow after second push = %d, want 3", got)
	}
}

func TestPushMisusePanics(t *testing.T) {
	cases := []struct {
		name string
		call func(*Graph, ArcID)
	}{
		{"negative units", func(g *Graph, a ArcID) { g.Push(a, -1) }},
		{"over capacity", func(g *Graph, a ArcID) { g.Push(a, 2) }},
		{"bad arc", func(g *Graph, a ArcID) { g.Push(ArcID(99), 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGraph(2)
			a := g.AddArc(0, 1, 1, 0)
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			tc.call(g, a)
		})
	}
}

// TestMinCostFlowFromSeedPotentials: augmenting from a preloaded flow with
// closed-form duals reaches the zero-start optimum with only the remaining
// units routed; negative reduced costs on arcs into the source are exempt.
func TestMinCostFlowFromSeedPotentials(t *testing.T) {
	costs := [][]float64{
		{1, 3, math.Inf(1)},
		{2, 1, 4},
		{1, 2, 6},
		{5, math.Inf(1), 2},
	}
	caps := []int{1, 2, 1}
	scratch, s, tt, _ := assignGraph(costs, caps)
	_, want, err := scratch.MinCostMaxFlow(s, tt)
	if err != nil {
		t.Fatal(err)
	}

	g, s2, t2, arcs := assignGraph(costs, caps)
	reg := obs.NewRegistry()
	g.Obs = reg
	nFF := len(costs)
	ringArcBase := len(g.arcs) - 2*len(caps)
	pot := make([]float64, g.NumNodes())
	used := make([]int, len(caps))
	preloaded := 0
	for i, row := range costs {
		best := 0
		for j := range row {
			if row[j] < row[best] {
				best = j
			}
		}
		pot[2+i] = -row[best]
		if used[best] < caps[best] {
			g.Push(ArcID(2*i), 1)
			g.Push(arcs[i][best], 1)
			g.Push(ArcID(ringArcBase+2*best), 1)
			used[best]++
			preloaded++
		}
	}
	flow, _, err := g.MinCostFlowFrom(s2, t2, nFF-preloaded, pot)
	if err != nil || flow != nFF-preloaded {
		t.Fatalf("augment: flow %d err %v", flow, err)
	}
	if got := totalCost(g); math.Abs(got-want) > 1e-9 {
		t.Fatalf("seeded total %v != zero-start total %v", got, want)
	}
	if p := reg.Snapshot().Counter("mcmf.paths"); p != int64(nFF-preloaded) {
		t.Fatalf("%d augmenting paths for %d remaining units", p, nFF-preloaded)
	}
}

// TestResidualArcs: the walker reports exactly the arcs and twins with
// capacity left, nodes in index order and each node's arcs in insertion
// order, with the twin's negated cost.
func TestResidualArcs(t *testing.T) {
	g := NewGraph(3)
	g.AddArc(0, 1, 1, 2)
	g.AddArc(1, 2, 2, 3)
	g.AddArc(0, 2, 1, 7)
	g.Push(ArcID(0), 1) // saturates 0->1
	g.Push(ArcID(2), 1)
	type arc struct {
		from, to int
		cost     float64
	}
	var got []arc
	g.ResidualArcs(func(from, to int, cost float64) { got = append(got, arc{from, to, cost}) })
	want := []arc{{0, 2, 7}, {1, 0, -2}, {1, 2, 3}, {2, 1, -3}}
	if len(got) != len(want) {
		t.Fatalf("residual arcs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("residual arcs %v, want %v", got, want)
		}
	}
}
