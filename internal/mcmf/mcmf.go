// Package mcmf implements min-cost max-flow (successive shortest paths with
// Johnson potentials) and min-cost circulation. The paper uses min-cost flow
// for the flip-flop-to-ring assignment of Section V (Fig. 4); the
// circulation solver additionally powers the weighted-sum skew optimization
// of Section VII through linear programming duality.
//
// Every solve runs one augmenting loop, MinCostFlowFrom, which takes its
// starting potentials as an argument: MinCostFlow starts from zero ones,
// while a caller that preloads a near-optimal flow with Push passes
// closed-form duals and augments only the remainder. Each augmenting search
// is a Dijkstra over reduced costs that stops once it settles the sink;
// the potential update that follows keeps every residual reduced cost
// non-negative (DESIGN.md section 27). The package has no Bellman-Ford:
// MinCostFlow rejects a negative-cost residual arc, and negative costs
// enter only through MinCostCirculation, which saturates them before it
// routes anything.
//
// Error discipline: solve methods return errors for conditions determined by
// the caller-supplied graph (a negative-cost arc handed to MinCostFlow; a
// circulation whose saturated excess cannot be rerouted is not a
// circulation instance). Panics are reserved for API misuse that is a bug
// in the calling code regardless of data — AddArc with out-of-range nodes or
// negative capacity, Push beyond an arc's residual capacity — and for
// violations of the solver's own potential invariant.
package mcmf

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/stop"
)

// ErrNegativeCost reports a residual arc of negative cost handed to
// MinCostFlow, whose zero starting potentials need every cost
// non-negative. Negative costs belong in MinCostCirculation.
var ErrNegativeCost = errors.New("mcmf: negative-cost residual arc")

// ErrExcessStranded reports that a MinCostCirculation instance saturated
// negative arcs whose excess could not be rerouted; the input was not a
// valid circulation instance.
var ErrExcessStranded = errors.New("mcmf: circulation excess could not be rerouted")

// ArcID identifies an arc returned by AddArc.
type ArcID int

type arc struct {
	to   int
	cap  int // residual capacity
	cost float64
}

// Graph is a directed flow network with integer capacities and float costs.
// Arcs are stored with their residual twins at index ^1.
//
// The adjacency is a compressed sparse row (CSR) index, rebuilt lazily by
// the first solve after a node or arc was added: out[start[u]:start[u+1]]
// lists u's residual arcs in insertion order, the order a per-node append
// list would hold them in. The shortest-path search keeps its scratch on
// the Graph, so augmenting paths after the first allocate nothing; a Graph
// is therefore not safe for concurrent solves (a solve mutates it anyway).
type Graph struct {
	n     int
	arcs  []arc
	orig  []int   // original capacity per forward arc (even indices)
	start []int32 // CSR row offsets, n+1 of them once built
	out   []int32 // CSR arc indices
	built int     // len(arcs) the CSR was built for, -1 after a Reset

	// Dijkstra scratch, grown to n by the first search that needs it.
	dist []float64
	prev []int32
	done []bool
	heap pq

	// Obs receives solver telemetry (augmenting paths, shortest-path edge
	// relaxations, nodes settled, units pushed). Nil records nothing.
	Obs *obs.Registry

	// Stop is the cooperative cancellation token, checked once per
	// augmenting path. Nil never stops. A fired token aborts the solve with
	// an error wrapping the stop sentinel; the flow routed so far stays on
	// the arcs (it is a valid partial flow, just not maximal or
	// cost-optimal).
	Stop *stop.Token
}

// NewGraph returns a graph with n nodes (0..n-1).
func NewGraph(n int) *Graph {
	return &Graph{n: n}
}

// Reset empties g to n nodes and no arcs, as NewGraph(n) would, but keeps
// the storage of its arcs, CSR index and search scratch for the arcs the
// caller adds next. Obs and Stop are kept too. The answers of the refilled
// graph are those of a fresh one.
func (g *Graph) Reset(n int) {
	g.n = n
	g.arcs, g.orig = g.arcs[:0], g.orig[:0]
	g.built = -1
}

// Reserve grows the arc storage to hold arcs more AddArc calls without
// reallocating. It changes no answer.
func (g *Graph) Reserve(arcs int) {
	g.arcs = slices.Grow(g.arcs, 2*arcs)
	g.orig = slices.Grow(g.orig, arcs)
}

// AddNode appends a node and returns its index.
func (g *Graph) AddNode() int {
	g.n++
	return g.n - 1
}

// NumNodes returns the current node count.
func (g *Graph) NumNodes() int { return g.n }

// AddArc adds a directed arc u->v with the given capacity and per-unit cost,
// returning its ID. Capacity must be non-negative.
func (g *Graph) AddArc(u, v, capacity int, cost float64) ArcID {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("mcmf: arc (%d,%d) out of range (n=%d)", u, v, g.n))
	}
	if capacity < 0 {
		panic("mcmf: negative capacity")
	}
	id := len(g.arcs)
	g.arcs = append(g.arcs, arc{to: v, cap: capacity, cost: cost}, arc{to: u, cap: 0, cost: -cost})
	g.orig = append(g.orig, capacity)
	return ArcID(id)
}

// Flow returns the flow currently routed through arc a.
func (g *Graph) Flow(a ArcID) int {
	return g.arcs[int(a)^1].cap
}

// Cost returns the per-unit cost of arc a.
func (g *Graph) Cost(a ArcID) float64 { return g.arcs[a].cost }

// Capacity returns the original capacity of arc a.
func (g *Graph) Capacity(a ArcID) int { return g.orig[int(a)/2] }

// adj returns the CSR index, rebuilding it if a node or arc was added since
// it was built. Arc a leaves node arcs[a^1].to; filling the rows in arc
// index order keeps each row in insertion order.
func (g *Graph) adj() (start, out []int32) {
	if g.built == len(g.arcs) && len(g.start) == g.n+1 {
		return g.start, g.out
	}
	g.start = slices.Grow(g.start[:0], g.n+1)[:g.n+1]
	clear(g.start)
	for ai := range g.arcs {
		g.start[g.arcs[ai^1].to+1]++
	}
	for u := 0; u < g.n; u++ {
		g.start[u+1] += g.start[u]
	}
	g.out = slices.Grow(g.out[:0], len(g.arcs))[:len(g.arcs)]
	// Each row's head advances to its end while it fills; shift the heads
	// back one row afterwards.
	for ai := range g.arcs {
		u := g.arcs[ai^1].to
		g.out[g.start[u]] = int32(ai)
		g.start[u]++
	}
	copy(g.start[1:], g.start[:g.n])
	g.start[0] = 0
	g.built = len(g.arcs)
	return g.start, g.out
}

type pqItem struct {
	node int
	dist float64
}

// pq is a binary min-heap on dist. push and pop sift exactly as
// container/heap's Push and Pop do with Less(i, j) = dist[i] < dist[j], so
// ties pop in the same order; the typed slice just avoids boxing every item
// into an interface.
type pq []pqItem

func (h *pq) push(it pqItem) {
	*h = append(*h, it)
	p := *h
	for j := len(p) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(p[j].dist < p[i].dist) {
			break
		}
		p[i], p[j] = p[j], p[i]
		j = i
	}
}

func (h *pq) pop() pqItem {
	p := *h
	n := len(p) - 1
	p[0], p[n] = p[n], p[0]
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && p[j2].dist < p[j1].dist {
			j = j2 // right child
		}
		if !(p[j].dist < p[i].dist) {
			break
		}
		p[i], p[j] = p[j], p[i]
		i = j
	}
	it := p[n]
	*h = p[:n]
	return it
}

// dijkstra searches shortest reduced-cost distances from s under the
// potentials pot and stops once it settles t. Reduced costs of the arcs it
// relaxes must be non-negative (the caller's potential invariant); arcs
// into an already settled node are never relaxed, so s, settled first, may
// have residual arcs of any reduced cost entering it. It returns dist, the
// predecessor arc per node (-1 if unreached) and done, the settled set,
// all three the Graph's scratch and valid until the next search, plus the
// relaxation and settled-node counts. dist is final for settled nodes and
// tentative for the rest: an upper bound, +Inf if unreached. prev of a
// settled node never changes once it is settled, so the path back from t
// is the one a search run to exhaustion would return. If t is
// unreachable, every reachable node is settled.
func (g *Graph) dijkstra(s, t int, pot []float64) (dist []float64, prev []int32, done []bool, relaxed, settled int) {
	start, out := g.adj()
	if len(g.dist) < g.n {
		g.dist, g.prev, g.done = make([]float64, g.n), make([]int32, g.n), make([]bool, g.n)
	}
	dist, prev, done = g.dist[:g.n], g.prev[:g.n], g.done[:g.n]
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	clear(done)
	dist[s] = 0
	h := append(g.heap[:0], pqItem{node: s})
	for len(h) > 0 {
		it := h.pop()
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		settled++
		if u == t {
			break
		}
		for _, ai := range out[start[u]:start[u+1]] {
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
				h.push(pqItem{node: a.to, dist: nd})
			}
		}
	}
	g.heap = h
	return dist, prev, done, relaxed, settled
}

// MinCostFlow pushes up to maxFlow units from s to t along successive
// shortest paths from zero potentials, returning the flow achieved and its
// total cost. Pass maxFlow < 0 for max flow. A residual arc of negative
// cost returns an error wrapping ErrNegativeCost before anything is routed.
func (g *Graph) MinCostFlow(s, t, maxFlow int) (flow int, cost float64, err error) {
	for ai, a := range g.arcs {
		if a.cap > 0 && a.cost < 0 {
			return 0, 0, fmt.Errorf("mcmf: arc %d->%d costs %v: %w", g.arcs[ai^1].to, a.to, a.cost, ErrNegativeCost)
		}
	}
	return g.MinCostFlowFrom(s, t, maxFlow, make([]float64, g.n))
}

// MinCostFlowFrom is MinCostFlow started from the caller's potentials pot,
// one per node: the augmenting loop every solve runs. Every residual arc
// that does not enter s must have a non-negative reduced cost
// cost + pot[u] - pot[v] (below -1e-6 panics as a violated invariant);
// arcs into s are exempt because s is settled first and never re-entered.
// A caller that knows a near-optimal flow preloads it with Push and passes
// closed-form duals for it, so only the remaining units need augmenting
// paths. pot is updated in place and left holding the final potentials.
func (g *Graph) MinCostFlowFrom(s, t, maxFlow int, pot []float64) (flow int, cost float64, err error) {
	if err := faultinject.Hook(faultinject.SiteMcmfMinCostFlow); err != nil {
		return 0, 0, err
	}
	if len(pot) != g.n {
		panic(fmt.Sprintf("mcmf: %d potentials for %d nodes", len(pot), g.n))
	}
	if s == t {
		return 0, 0, nil
	}
	if maxFlow < 0 {
		maxFlow = math.MaxInt64 / 4
	}
	// Telemetry accumulates locally and records once at exit; the search
	// loops stay lock-free.
	paths, relaxed, settled := 0, 0, 0
	if reg := g.Obs; reg != nil {
		defer func() {
			reg.Add("mcmf.solves", 1)
			reg.Add("mcmf.paths", int64(paths))
			reg.Add("mcmf.relaxations", int64(relaxed))
			reg.Add("mcmf.settled", int64(settled))
			reg.Add("mcmf.flow", int64(flow))
		}()
	}
	for flow < maxFlow {
		if cerr := stop.Check(g.Stop, faultinject.SiteMcmfPathCancel); cerr != nil {
			return flow, cost, fmt.Errorf("mcmf: augmenting-path search: %w", cerr)
		}
		dist, prev, done, r, k := g.dijkstra(s, t, pot)
		relaxed += r
		settled += k
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
		// Update potentials: a settled node rises by its distance, every
		// other node by dist[t], a lower bound on its own distance. Both
		// keep every residual reduced cost non-negative.
		dt := dist[t]
		for v := 0; v < g.n; v++ {
			if done[v] {
				pot[v] += dist[v]
			} else {
				pot[v] += dt
			}
		}
	}
	return flow, cost, nil
}

// MinCostMaxFlow routes the maximum flow from s to t at minimum cost.
func (g *Graph) MinCostMaxFlow(s, t int) (flow int, cost float64, err error) {
	return g.MinCostFlow(s, t, -1)
}

// MinCostCirculation finds a minimum-cost circulation: a flow with
// conservation at every node, exploiting negative-cost arcs. It returns the
// (non-positive) optimal cost. The standard transformation saturates all
// negative arcs and reroutes the resulting excesses via a min-cost flow on
// the residual graph, whose costs are then all non-negative. Inputs that are
// not valid circulation instances return ErrExcessStranded.
func (g *Graph) MinCostCirculation() (float64, error) {
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
	flow, c2, err := g.MinCostMaxFlow(s, t)
	if err != nil {
		return 0, err
	}
	if flow < need {
		// Leftover excess means some negative arcs cannot be fully used;
		// this cannot happen in a circulation instance built from finite
		// capacities, so reject the input.
		return 0, ErrExcessStranded
	}
	return cost + c2, nil
}

// ResidualArcs calls fn for every residual arc of the current flow (an arc
// or twin with capacity left): nodes in index order, each node's arcs in
// insertion order.
func (g *Graph) ResidualArcs(fn func(from, to int, cost float64)) {
	start, out := g.adj()
	for u := 0; u < g.n; u++ {
		for _, ai := range out[start[u]:start[u+1]] {
			if a := g.arcs[ai]; a.cap > 0 {
				fn(u, a.to, a.cost)
			}
		}
	}
}

// Push preloads units of flow onto arc a, debiting its residual capacity and
// crediting its twin. It is the primitive for warm-starting a solve: the
// caller routes a known flow arc by arc and passes MinCostFlowFrom
// potentials that are feasible for it. The caller is responsible for
// conservation (pushing whole source-to-sink paths); Push itself only moves
// capacity. Out-of-range arcs, negative units, and units exceeding the
// arc's residual capacity panic — all three are caller bugs, not instance
// properties.
func (g *Graph) Push(a ArcID, units int) {
	if int(a) < 0 || int(a) >= len(g.arcs) {
		panic(fmt.Sprintf("mcmf: push on arc %d out of range (%d arcs)", a, len(g.arcs)))
	}
	if units < 0 {
		panic("mcmf: push of negative units")
	}
	if units > g.arcs[a].cap {
		panic(fmt.Sprintf("mcmf: push of %d units exceeds residual capacity %d on arc %d", units, g.arcs[a].cap, a))
	}
	g.arcs[a].cap -= units
	g.arcs[int(a)^1].cap += units
}

// TotalCost returns the cost of the current flow (sum over forward arcs).
func (g *Graph) TotalCost() float64 {
	c := 0.0
	for ai := 0; ai < len(g.arcs); ai += 2 {
		f := g.arcs[ai^1].cap // flow = reverse residual, valid for arcs added via AddArc
		if f > 0 {
			c += float64(f) * g.arcs[ai].cost
		}
	}
	return c
}
