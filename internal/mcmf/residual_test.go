package mcmf

import (
	"math"
	"testing"
	"time"

	"rotaryclk/internal/obs"
	"rotaryclk/internal/stop"
)

// assignGraph builds the Fig.-4-shaped assignment network used by the ECO
// patch path: source -> ffs (cap 1) -> candidate rings (cost per arc) ->
// sink (ring capacity).
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
	if got := g.TotalCost(); got != 5 {
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

// TestCancelNegativeCyclesRestoresOptimum preloads a stale (previously
// optimal, now suboptimal) assignment flow and checks cycle canceling
// reaches the fresh-solve optimum: ff0 sits on ring A (cost 5) because ring
// B (cost 1) used to be full; after the blocking unit is dropped, the
// negative residual cycle must reroute ff0 onto B.
func TestCancelNegativeCyclesRestoresOptimum(t *testing.T) {
	costs := [][]float64{
		{5, 1}, // ff0: ring A cost 5, ring B cost 1
	}
	g, _, _, arcs := assignGraph(costs, []int{1, 1})
	// Preload ff0 -> A (the stale choice).
	g.Push(ArcID(0), 1)             // s -> ff0
	g.Push(arcs[0][0], 1)           // ff0 -> A
	g.Push(ArcID(len(g.arcs)-4), 1) // A -> t
	before := g.TotalCost()
	canceled, delta, err := g.CancelNegativeCycles()
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if canceled == 0 {
		t.Fatal("no cycle canceled; expected the A->B reroute")
	}
	after := g.TotalCost()
	if after != 1 {
		t.Fatalf("cost after canceling = %v, want 1", after)
	}
	if got := before + delta; math.Abs(got-after) > 1e-12 {
		t.Fatalf("delta accounting: before %v + delta %v != after %v", before, delta, after)
	}
	if g.Flow(arcs[0][1]) != 1 || g.Flow(arcs[0][0]) != 0 {
		t.Fatal("flow did not move to ring B")
	}
}

func TestCancelNegativeCyclesCleanGraphNoop(t *testing.T) {
	costs := [][]float64{{1, 2}, {3, 4}}
	g, s, tt, _ := assignGraph(costs, []int{2, 2})
	if _, _, err := g.MinCostMaxFlow(s, tt); err != nil {
		t.Fatalf("solve: %v", err)
	}
	canceled, delta, err := g.CancelNegativeCycles()
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if canceled != 0 || delta != 0 {
		t.Fatalf("optimal flow got %d cycles (delta %v) canceled", canceled, delta)
	}
}

// TestPreloadCancelAugmentMatchesScratch is the full ECO patch recipe on a
// random-ish instance: preload part of a previous optimum, cancel, augment
// the rest, and compare against a from-scratch solve of the same instance.
func TestPreloadCancelAugmentMatchesScratch(t *testing.T) {
	costs := [][]float64{
		{4, 9, 2},
		{7, 1, 6},
		{3, 8, 5},
		{2, 2, 9},
	}
	caps := []int{2, 1, 1}

	scratch, s, tt, _ := assignGraph(costs, caps)
	flow, want, err := scratch.MinCostMaxFlow(s, tt)
	if err != nil || flow != 4 {
		t.Fatalf("scratch solve: flow %d err %v", flow, err)
	}

	// Patch arm: preload ffs 0 and 1 on deliberately stale rings, then
	// cancel + augment ffs 2 and 3.
	g, s2, t2, arcs := assignGraph(costs, caps)
	ringArcBase := len(g.arcs) - 2*len(caps)
	preload := func(ff, ring int) {
		g.Push(ArcID(2*ff), 1)
		g.Push(arcs[ff][ring], 1)
		g.Push(ArcID(ringArcBase+2*ring), 1)
	}
	preload(0, 1) // stale: cost 9 where 2 is available
	preload(1, 0)
	if _, _, err := g.CancelNegativeCycles(); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	flow, _, err = g.MinCostFlow(s2, t2, 2)
	if err != nil || flow != 2 {
		t.Fatalf("augment: flow %d err %v", flow, err)
	}
	if got := g.TotalCost(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("patched total %v != scratch total %v", got, want)
	}
}

func TestCancelNegativeCyclesStops(t *testing.T) {
	costs := [][]float64{{5, 1}}
	g, _, _, arcs := assignGraph(costs, []int{1, 1})
	g.Push(ArcID(0), 1)
	g.Push(arcs[0][0], 1)
	g.Push(ArcID(len(g.arcs)-4), 1)
	tok, cancel := stop.WithTimeout(-time.Second) // already expired
	defer cancel()
	g.Stop = tok
	_, _, err := g.CancelNegativeCycles()
	if !stop.IsStop(err) {
		t.Fatalf("err = %v, want a stop error", err)
	}
}

// twoCycleGraph is an n-node residual graph that is clean except for one
// 2-cycle 0->1->0 of the given arc costs; nodes 2..n-1 form a chain of
// non-negative arcs that never relaxes.
func twoCycleGraph(n int, c01, c10 float64) (*Graph, *obs.Registry) {
	g := NewGraph(n)
	reg := obs.NewRegistry()
	g.Obs = reg
	g.AddArc(0, 1, 1, c01)
	g.AddArc(1, 0, 1, c10)
	for v := 2; v+1 < n; v++ {
		g.AddArc(v, v+1, 1, 1)
	}
	return g, reg
}

// TestCancelDeepCycleEarly: a negative 2-cycle in a 500-node graph is found
// by the predecessor walk after the first round, not after n Bellman-Ford
// rounds, and the whole call takes at most 4 rounds.
func TestCancelDeepCycleEarly(t *testing.T) {
	const n = 500
	g, reg := twoCycleGraph(n, -5, 1)
	canceled, delta, err := g.CancelNegativeCycles()
	if err != nil {
		t.Fatal(err)
	}
	if canceled != 1 || delta != -4 {
		t.Fatalf("canceled %d cycles, delta %v; want 1, -4", canceled, delta)
	}
	if r := reg.Counter("mcmf.cancel.rounds"); r > 4 {
		t.Fatalf("%d Bellman-Ford rounds, want <= 4", r)
	}
	if e := reg.Counter("mcmf.cancel.early"); e != 1 {
		t.Fatalf("mcmf.cancel.early = %d, want 1", e)
	}
	if v, r := reg.Counter("mcmf.cancel.edge_visits"), reg.Counter("mcmf.cancel.rounds"); v != r*int64(len(g.arcs)) {
		t.Fatalf("edge visits %d != rounds %d x %d arc slots", v, r, len(g.arcs))
	}
}

// TestCancelGuardBandCycleUsesWitnessWalk: a cycle of weight -3e-12 sits
// inside the guard band -2(k+1)*1e-12, so the early walk must not claim it;
// the n-round witness walk still finds and cancels it.
func TestCancelGuardBandCycleUsesWitnessWalk(t *testing.T) {
	const n = 500
	g, reg := twoCycleGraph(n, 1, -1-3e-12)
	canceled, _, err := g.CancelNegativeCycles()
	if err != nil {
		t.Fatal(err)
	}
	if canceled != 1 {
		t.Fatalf("canceled %d cycles, want 1", canceled)
	}
	if e := reg.Counter("mcmf.cancel.early"); e != 0 {
		t.Fatalf("mcmf.cancel.early = %d on a guard-band cycle, want 0", e)
	}
	if r := reg.Counter("mcmf.cancel.rounds"); r < n {
		t.Fatalf("%d rounds: the guard-band cycle was not left to the n-round walk", r)
	}
	if g.Flow(ArcID(0)) != 1 || g.Flow(ArcID(2)) != 1 {
		t.Fatal("guard-band cycle not saturated")
	}
}

// TestMinCostFlowNegativeCycleEarly: the potential initialization shares
// the early exit, so a deep negative cycle is reported after a handful of
// relaxations instead of n rounds of them.
func TestMinCostFlowNegativeCycleEarly(t *testing.T) {
	const n = 500
	g, reg := twoCycleGraph(n, -5, 1)
	if _, _, err := g.MinCostFlow(2, n-1, -1); err != ErrNegativeCycle {
		t.Fatalf("err = %v, want ErrNegativeCycle", err)
	}
	if r := reg.Counter("mcmf.relaxations"); r > 4 {
		t.Fatalf("%d relaxations before reporting the cycle, want <= 4", r)
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
	if got := g.TotalCost(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("seeded total %v != zero-start total %v", got, want)
	}
	if p := reg.Counter("mcmf.paths"); p != int64(nFF-preloaded) {
		t.Fatalf("%d augmenting paths for %d remaining units", p, nFF-preloaded)
	}
}
