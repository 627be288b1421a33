package mcmf

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rotaryclk/internal/obs"
)

// refGraph is the solver as it stood before the CSR adjacency and the
// Graph-owned search scratch: per-node append lists, three fresh n-sized
// slices per search and a container/heap queue. Its search and augmenting
// loop are verbatim (only the fault, telemetry and cancel hooks are left
// out; the loop returns its own path and relaxation counts instead), so
// TestMinCostFlowMatchesReference can hold the production solver to it
// bit for bit.
type refGraph struct {
	n    int
	arcs []arc
	adj  [][]int32
}

func newRefGraph(n int) *refGraph { return &refGraph{n: n, adj: make([][]int32, n)} }

func (g *refGraph) AddNode() int {
	g.adj = append(g.adj, nil)
	g.n++
	return g.n - 1
}

func (g *refGraph) AddArc(u, v, capacity int, cost float64) ArcID {
	id := len(g.arcs)
	g.arcs = append(g.arcs, arc{to: v, cap: capacity, cost: cost})
	g.arcs = append(g.arcs, arc{to: u, cap: 0, cost: -cost})
	g.adj[u] = append(g.adj[u], int32(id))
	g.adj[v] = append(g.adj[v], int32(id+1))
	return ArcID(id)
}

func (g *refGraph) Push(a ArcID, units int) {
	g.arcs[a].cap -= units
	g.arcs[int(a)^1].cap += units
}

type refPQ []pqItem

func (p refPQ) Len() int            { return len(p) }
func (p refPQ) Less(i, j int) bool  { return p[i].dist < p[j].dist }
func (p refPQ) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *refPQ) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *refPQ) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

func (g *refGraph) dijkstra(s int, pot []float64) (dist []float64, prev []int32, relaxed int) {
	dist = make([]float64, g.n)
	prev = make([]int32, g.n)
	done := make([]bool, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[s] = 0
	h := &refPQ{{node: s}}
	for h.Len() > 0 {
		it := heap.Pop(h).(pqItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, ai := range g.adj[u] {
			a := &g.arcs[ai]
			if a.cap <= 0 || done[a.to] {
				continue
			}
			rc := a.cost + pot[u] - pot[a.to]
			if rc < 0 {
				// Tiny negative reduced costs arise from float rounding;
				// clamp them so Dijkstra stays correct.
				if rc < -1e-6 {
					panic(fmt.Sprintf("mcmf: negative reduced cost %v on arc %d", rc, ai))
				}
				rc = 0
			}
			if nd := dist[u] + rc; nd < dist[a.to]-1e-15 {
				dist[a.to] = nd
				prev[a.to] = ai
				relaxed++
				heap.Push(h, pqItem{node: a.to, dist: nd})
			}
		}
	}
	return dist, prev, relaxed
}

func (g *refGraph) MinCostFlowFrom(s, t, maxFlow int, pot []float64) (flow int, cost float64, paths, relaxed int) {
	if s == t {
		return 0, 0, 0, 0
	}
	if maxFlow < 0 {
		maxFlow = math.MaxInt64 / 4
	}
	for flow < maxFlow {
		dist, prev, r := g.dijkstra(s, pot)
		relaxed += r
		if prev[t] < 0 {
			break
		}
		// Bottleneck along the path.
		push := maxFlow - flow
		for v := t; v != s; {
			a := &g.arcs[prev[v]]
			if a.cap < push {
				push = a.cap
			}
			v = g.arcs[int(prev[v])^1].to
		}
		for v := t; v != s; {
			ai := prev[v]
			g.arcs[ai].cap -= push
			g.arcs[int(ai)^1].cap += push
			cost += float64(push) * g.arcs[ai].cost
			v = g.arcs[int(ai)^1].to
		}
		flow += push
		paths++
		// Update potentials; unreachable nodes keep their old potential.
		for v := 0; v < g.n; v++ {
			if !math.IsInf(dist[v], 1) {
				pot[v] += dist[v]
			}
		}
	}
	return flow, cost, paths, relaxed
}

func (g *refGraph) MinCostCirculation() (float64, error) {
	excess := make([]float64, g.n)
	cost := 0.0
	for ai := 0; ai < len(g.arcs); ai += 2 {
		a := &g.arcs[ai]
		if a.cost >= 0 || a.cap <= 0 {
			continue
		}
		c := a.cap
		from := g.arcs[ai^1].to
		cost += float64(c) * a.cost
		excess[a.to] += float64(c)
		excess[from] -= float64(c)
		g.arcs[ai^1].cap += c
		a.cap = 0
	}
	s := g.AddNode()
	t := g.AddNode()
	need := 0
	for v := 0; v < g.n-2; v++ {
		switch {
		case excess[v] > 0.5:
			g.AddArc(s, v, int(excess[v]+0.5), 0)
			need += int(excess[v] + 0.5)
		case excess[v] < -0.5:
			g.AddArc(v, t, int(-excess[v]+0.5), 0)
		}
	}
	flow, c2, _, _ := g.MinCostFlowFrom(s, t, -1, make([]float64, g.n))
	if flow < need {
		return 0, ErrExcessStranded
	}
	return cost + c2, nil
}

// tiedNetwork draws a random network whose costs come from a handful of
// values, so shortest paths tie often and the pop order decides them.
func tiedNetwork(rng *rand.Rand, negative bool) (int, []arcSpec) {
	return drawNetwork(rng, negative, func() float64 { return float64(rng.Intn(4)) * 0.5 })
}

// untiedNetwork draws a random network whose costs are distinct generic
// values (2^20 dyadic steps), so every shortest path and the optimal flow
// are unique.
func untiedNetwork(rng *rand.Rand, negative bool) (int, []arcSpec) {
	return drawNetwork(rng, negative, func() float64 { return float64(1+rng.Intn(1<<20)) / (1 << 16) })
}

func drawNetwork(rng *rand.Rand, negative bool, cost func() float64) (int, []arcSpec) {
	n := 4 + rng.Intn(24)
	var arcs []arcSpec
	for k := rng.Intn(5 * n); k >= 0; k-- {
		u, v := rng.Intn(n), rng.Intn(n)
		c := cost()
		if negative && rng.Intn(4) == 0 {
			c = -c
		}
		arcs = append(arcs, arcSpec{u: u, v: v, cap: 1 + rng.Intn(3), cost: c})
	}
	return n, arcs
}

func buildBoth(n int, specs []arcSpec) (*Graph, *refGraph) {
	g, r := NewGraph(n), newRefGraph(n)
	for _, a := range specs {
		g.AddArc(a.u, a.v, a.cap, a.cost)
		r.AddArc(a.u, a.v, a.cap, a.cost)
	}
	return g, r
}

// sameArcs requires bit-equal residual capacities (hence per-arc flows).
func sameArcs(t *testing.T, tag string, g *Graph, r *refGraph) {
	t.Helper()
	if len(g.arcs) != len(r.arcs) {
		t.Fatalf("%s: %d arcs vs %d in the reference", tag, len(g.arcs), len(r.arcs))
	}
	for ai := range g.arcs {
		if g.arcs[ai] != r.arcs[ai] {
			t.Fatalf("%s: arc %d = %+v vs %+v in the reference", tag, ai, g.arcs[ai], r.arcs[ai])
		}
	}
}

// validFlow requires a feasible flow: every arc's flow within
// [0, capacity], and conservation over the first m arcs at every node
// except s and t (pass -1 to exempt none).
func validFlow(t *testing.T, tag string, g *Graph, m, s, tt int) {
	t.Helper()
	net := make([]int, g.n)
	for ai := 0; ai < len(g.arcs); ai += 2 {
		res, f := g.arcs[ai].cap, g.arcs[ai^1].cap
		if res < 0 || f < 0 || res+f != g.orig[ai/2] {
			t.Fatalf("%s: arc %d residual %d, flow %d, capacity %d", tag, ai, res, f, g.orig[ai/2])
		}
		if ai/2 < m {
			net[g.arcs[ai^1].to] -= f
			net[g.arcs[ai].to] += f
		}
	}
	for v, x := range net {
		if x != 0 && v != s && v != tt {
			t.Fatalf("%s: node %d has net inflow %d", tag, v, x)
		}
	}
}

// dualFeasible requires every residual arc that does not enter s to have a
// reduced cost cost + pot[u] - pot[v] of at least -1e-6, the bound the
// search panics below. With reachable set, only arcs whose tail the
// residual graph reaches from s are held to it: the arcs a later search
// can relax.
func dualFeasible(t *testing.T, tag string, g *Graph, s int, pot []float64, reachable bool) {
	t.Helper()
	seen := make([]bool, g.n)
	seen[s] = true
	for grew := true; grew && reachable; {
		grew = false
		g.ResidualArcs(func(u, v int, _ float64) {
			if seen[u] && !seen[v] {
				seen[v], grew = true, true
			}
		})
	}
	g.ResidualArcs(func(u, v int, cost float64) {
		if rc := cost + pot[u] - pot[v]; v != s && rc < -1e-6 && (seen[u] || !reachable) {
			t.Fatalf("%s: residual arc %d->%d has reduced cost %v", tag, u, v, rc)
		}
	})
}

// noNegativeCycle requires the residual graph to hold no cycle cheaper
// than -1e-9, the optimality condition of a circulation: Bellman-Ford from
// every node at once must settle within n rounds.
func noNegativeCycle(t *testing.T, tag string, g *Graph) {
	t.Helper()
	dist := make([]float64, g.n)
	for round := 0; ; round++ {
		changed := false
		g.ResidualArcs(func(u, v int, cost float64) {
			if d := dist[u] + cost; d < dist[v]-1e-9 {
				dist[v], changed = d, true
			}
		})
		if !changed {
			return
		}
		if round == g.n {
			t.Fatalf("%s: the residual graph has a negative cycle", tag)
		}
	}
}

// TestMinCostFlowMatchesReference holds MinCostFlowFrom and
// MinCostCirculation to the verbatim pre-CSR solver, which searches every
// reachable node on every path, on random graphs with tied costs: from
// zero potentials, after growing a solved graph, from seeded potentials
// over a preloaded flow, and through the circulation's added nodes and
// arcs. The flow, the Float64bits of the cost and the path count must
// agree, and the early-exit search may relax no more arcs than the full
// one (strictly fewer on some trial). Ties may route differently, so each
// arc's residual and each potential is held to a contract instead of to
// the reference: a feasible flow (validFlow) and, for the flow solves,
// dual-feasible potentials (dualFeasible); the circulation's residual
// graph has no negative cycle.
func TestMinCostFlowMatchesReference(t *testing.T) {
	fewer, solves := matchReference(t, rand.New(rand.NewSource(25)), tiedNetwork, false)
	if fewer == 0 {
		t.Fatal("the early exit relaxed as many arcs as the full search on every trial")
	}
	t.Logf("%d of %d flow solves relaxed fewer arcs than the reference", fewer, solves)
}

// TestMinCostFlowMatchesReferenceUntied is TestMinCostFlowMatchesReference
// on generic distinct costs, where every shortest path and the optimal flow
// are unique: every arc's residual must then also be bit-equal to the
// reference's.
func TestMinCostFlowMatchesReferenceUntied(t *testing.T) {
	fewer, solves := matchReference(t, rand.New(rand.NewSource(26)), untiedNetwork, true)
	if fewer == 0 {
		t.Fatal("the early exit relaxed as many arcs as the full search on every trial")
	}
	t.Logf("%d of %d flow solves relaxed fewer arcs than the reference", fewer, solves)
}

// matchReference runs the reference differential over 400 random networks
// from draw and returns how many of its flow solves relaxed strictly fewer
// arcs than the reference. sameResiduals also requires bit-equal residuals.
func matchReference(t *testing.T, rng *rand.Rand, draw func(*rand.Rand, bool) (int, []arcSpec), sameResiduals bool) (fewer, solves int) {
	t.Helper()
	// solve runs both solvers from their potentials and checks the shared
	// contract.
	solve := func(tag string, g *Graph, r *refGraph, s, tt, limit int, pot, rpot []float64, reachable bool) {
		t.Helper()
		reg := obs.NewRegistry()
		g.Obs = reg
		flow, cost, err := g.MinCostFlowFrom(s, tt, limit, pot)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		rflow, rcost, paths, relaxed := r.MinCostFlowFrom(s, tt, limit, rpot)
		if flow != rflow || math.Float64bits(cost) != math.Float64bits(rcost) {
			t.Fatalf("%s: flow %d cost %v vs %d %v in the reference", tag, flow, cost, rflow, rcost)
		}
		if got := reg.Snapshot().Counter("mcmf.paths"); got != int64(paths) {
			t.Fatalf("%s: %d paths vs %d in the reference", tag, got, paths)
		}
		solves++
		switch got := reg.Snapshot().Counter("mcmf.relaxations"); {
		case got > int64(relaxed):
			t.Fatalf("%s: %d relaxations vs %d in the reference", tag, got, relaxed)
		case got < int64(relaxed):
			fewer++
		}
		validFlow(t, tag, g, len(g.orig), s, tt)
		dualFeasible(t, tag, g, s, pot, reachable)
		if sameResiduals {
			sameArcs(t, tag, g, r)
		}
	}
	for trial := 0; trial < 400; trial++ {
		n, specs := draw(rng, false)
		s, tt := rng.Intn(n), rng.Intn(n)
		limit := -1
		if rng.Intn(2) == 0 {
			limit = 1 + rng.Intn(6)
		}
		tag := fmt.Sprintf("trial %d", trial)

		// From zero potentials.
		g, r := buildBoth(n, specs)
		pot, rpot := make([]float64, n), make([]float64, n)
		solve(tag, g, r, s, tt, limit, pot, rpot, false)

		// Grown after a solve: a new node on a fresh source-to-target path,
		// priced so every reduced cost stays non-negative, must appear in
		// the next search's adjacency.
		if s != tt {
			c1 := float64(rng.Intn(4)) * 0.5
			for _, x := range []interface {
				AddNode() int
				AddArc(u, v, capacity int, cost float64) ArcID
			}{g, r} {
				w := x.AddNode()
				x.AddArc(s, w, 2, c1)
				x.AddArc(w, tt, 2, math.Max(0, pot[tt]-(pot[s]+c1)))
			}
			pot, rpot = append(pot, pot[s]+c1), append(rpot, rpot[s]+c1)
			before := g.arcs[len(g.arcs)-1].cap
			solve(tag+" grown", g, r, s, tt, -1, pot, rpot, false)
			if got := g.arcs[len(g.arcs)-1].cap - before; got < 2 {
				t.Fatalf("%s grown: the new path carried %d units, want 2", tag, got)
			}
		}

		// Preloaded: replay a partial reference solve's flow with Push onto
		// fresh graphs and finish from its potentials. A node and an arc
		// added first, out of the source's reach, force the adjacency to
		// rebuild without changing any path.
		g, r = buildBoth(n, specs)
		pre := newRefGraph(n)
		for _, a := range specs {
			pre.AddArc(a.u, a.v, a.cap, a.cost)
		}
		seed := make([]float64, n)
		pre.MinCostFlowFrom(s, tt, 1+rng.Intn(3), seed)
		for ai := 0; ai < len(pre.arcs); ai += 2 {
			if f := pre.arcs[ai^1].cap; f > 0 {
				g.Push(ArcID(ai), f)
				r.Push(ArcID(ai), f)
			}
		}
		w := g.AddNode()
		r.AddNode()
		g.AddArc(w, tt, 1, 1)
		r.AddArc(w, tt, 1, 1)
		seed = append(seed, 0)
		pot, rpot = append([]float64(nil), seed...), append([]float64(nil), seed...)
		// The seed holds the reference's potentials, which leave every node
		// the partial solve did not reach at 0, so arcs out of such nodes may
		// start with negative reduced costs no search ever relaxes; only the
		// arcs a search reaches are held to dual feasibility.
		solve(tag+" preloaded", g, r, s, tt, -1, pot, rpot, true)

		// Circulation, negative costs included.
		n, specs = draw(rng, true)
		g, r = buildBoth(n, specs)
		got, err := g.MinCostCirculation()
		want, rerr := r.MinCostCirculation()
		if err != rerr || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s circulation: cost %v (%v) vs %v (%v) in the reference", tag, got, err, want, rerr)
		}
		if err == nil {
			// The arcs the solve added at its own source and sink carry the
			// saturated excess; the input's arcs alone must circulate.
			validFlow(t, tag+" circulation", g, len(specs), -1, -1)
			noNegativeCycle(t, tag+" circulation", g)
		}
		if sameResiduals {
			sameArcs(t, tag+" circulation", g, r)
		}
	}
	return fewer, solves
}

// TestSearchStopsAtSink: with the sink one zero-cost hop from the source
// (units parallel unit arcs, one per path) and every other node a costlier
// hop away, each augmenting search settles the source and the sink and
// nothing else, so mcmf.settled stays below nodes x paths, the count a
// search settling every reachable node reaches.
func TestSearchStopsAtSink(t *testing.T) {
	const fan, units = 50, 5
	g := NewGraph(fan + 2)
	for k := 0; k < units; k++ {
		g.AddArc(0, 1, 1, 0)
	}
	for i := 0; i < fan; i++ {
		g.AddArc(0, 2+i, 1, 1)
		g.AddArc(2+i, 1, 1, 1)
	}
	reg := obs.NewRegistry()
	g.Obs = reg
	if flow, cost, err := g.MinCostFlow(0, 1, units); err != nil || flow != units || cost != 0 {
		t.Fatalf("flow %d cost %v err %v, want %d units at cost 0", flow, cost, err, units)
	}
	paths, settled := reg.Snapshot().Counter("mcmf.paths"), reg.Snapshot().Counter("mcmf.settled")
	if paths != units {
		t.Fatalf("%d augmenting paths, want %d", paths, units)
	}
	if n := int64(g.NumNodes()); settled >= n*paths {
		t.Fatalf("mcmf.settled = %d, not below nodes x paths = %d", settled, n*paths)
	}
	if settled != 2*paths {
		t.Fatalf("mcmf.settled = %d, want source and sink only (%d)", settled, 2*paths)
	}
}

// TestHeapMatchesContainerHeap: interleaved pushes and pops of random keys
// with many duplicates come out of pq in exactly container/heap's order.
func TestHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var h pq
		ref := &refPQ{}
		for op := 0; op < 300; op++ {
			if len(h) > 0 && rng.Intn(3) == 0 {
				got, want := h.pop(), heap.Pop(ref).(pqItem)
				if got != want {
					t.Fatalf("trial %d op %d: popped %+v, container/heap pops %+v", trial, op, got, want)
				}
				continue
			}
			it := pqItem{node: op, dist: float64(rng.Intn(8))}
			h.push(it)
			heap.Push(ref, it)
		}
		for len(h) > 0 {
			if got, want := h.pop(), heap.Pop(ref).(pqItem); got != want {
				t.Fatalf("trial %d drain: popped %+v, container/heap pops %+v", trial, got, want)
			}
		}
	}
}

// TestAugmentingPathsAllocateNothing: once a graph has been searched, an
// augmenting path allocates nothing. The adjacency index and the search
// scratch are built by the first solve (AllocsPerRun's warm-up call) and
// reused by every later path.
func TestAugmentingPathsAllocateNothing(t *testing.T) {
	const mid = 60
	g := NewGraph(mid + 2)
	for i := 0; i < mid; i++ {
		g.AddArc(0, 2+i, 1, float64(i%4))
		g.AddArc(2+i, 1, 1, float64(i%3))
		if i > 0 {
			g.AddArc(2+i, 1+i, 1, 0.5)
		}
	}
	pot := make([]float64, g.NumNodes())
	route := func() {
		if flow, _, err := g.MinCostFlowFrom(0, 1, 1, pot); err != nil || flow != 1 {
			t.Fatalf("routed %d units: %v", flow, err)
		}
	}
	for k := 0; k < mid/2; k++ {
		if a := testing.AllocsPerRun(1, route); a != 0 {
			t.Fatalf("augmenting path %d allocated %v times", 2*k+2, a)
		}
	}
}
