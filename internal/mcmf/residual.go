// Residual-flow primitives for incremental (ECO-style) re-solves: preloading
// a known-good partial flow onto a freshly built graph and restoring
// optimality by canceling negative-cost residual cycles, so a caller can
// patch a previously optimal solution instead of solving from scratch.
package mcmf

import (
	"errors"
	"fmt"
	"math"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/stop"
)

// ErrCancelLimit reports that CancelNegativeCycles hit its iteration safety
// bound before the residual graph went clean; callers should fall back to a
// from-scratch solve.
var ErrCancelLimit = errors.New("mcmf: negative-cycle canceling did not converge")

// Push preloads units of flow onto arc a, debiting its residual capacity and
// crediting its twin. It is the primitive for warm-starting a solve from a
// previous solution: the caller re-routes a known flow arc by arc and then
// restores optimality with CancelNegativeCycles before augmenting further.
// The caller is responsible for conservation (pushing whole source-to-sink
// paths); Push itself only moves capacity. Out-of-range arcs, negative
// units, and units exceeding the arc's residual capacity panic — all three
// are caller bugs, not instance properties.
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

// CancelNegativeCycles restores min-cost optimality of the current flow at
// its current value by repeatedly finding a negative-cost cycle in the
// residual graph and saturating it. A flow with no negative residual cycle
// is minimum-cost among all flows of the same value, so after this returns
// the caller can continue with successive-shortest-path augmentation and end
// at the global optimum.
//
// Each search is the package's residual Bellman-Ford loop from a zero start
// (see bellmanFord.run). It cancels the first predecessor cycle whose k arcs
// sum below -2(k+1)*relaxEps, found by an O(n) walk after every round that
// changed something, so a deep cycle costs a few rounds instead of n; only
// cycles inside that guard band wait for the n-round witness walk. The
// scratch is allocated once per call. The counters mcmf.cancel.rounds,
// mcmf.cancel.edge_visits and mcmf.cancel.early record the search work.
//
// It returns the number of cycles canceled and the (non-positive) total
// cost change. The iteration bound is a safety net against pathological
// instances; hitting it returns ErrCancelLimit and leaves a valid (but not
// cost-optimal) flow on the arcs, as does a fired stop token.
func (g *Graph) CancelNegativeCycles() (canceled int, delta float64, err error) {
	b := g.newBellmanFord()
	if reg := obs.Resolve(g.Obs); reg != nil {
		defer func() {
			reg.Add("mcmf.cancel.calls", 1)
			reg.Add("mcmf.cancel.cycles", int64(canceled))
			reg.Add("mcmf.cancel.rounds", int64(b.rounds))
			reg.Add("mcmf.cancel.edge_visits", int64(b.rounds)*int64(len(g.arcs)))
			reg.Add("mcmf.cancel.early", int64(b.early))
		}()
	}
	// Each cancellation strictly lowers the flow cost, so termination is
	// guaranteed for integer capacities; the explicit bound only guards
	// against degenerate float-cost instances.
	limit := 64 + 4*len(g.arcs)
	for iter := 0; ; iter++ {
		if iter >= limit {
			return canceled, delta, ErrCancelLimit
		}
		v, cerr := b.run(g)
		if cerr != nil {
			return canceled, delta, fmt.Errorf("mcmf: cycle canceling: %w", cerr)
		}
		if v < 0 {
			return canceled, delta, nil
		}
		// Saturate the predecessor cycle through v: one walk for its
		// bottleneck, one to push it.
		push := math.MaxInt
		for u := v; ; {
			ai := b.prev[u]
			push = min(push, g.arcs[ai].cap)
			if u = g.arcs[int(ai)^1].to; u == v {
				break
			}
		}
		for u := v; ; {
			ai := b.prev[u]
			g.arcs[ai].cap -= push
			g.arcs[int(ai)^1].cap += push
			delta += float64(push) * g.arcs[ai].cost
			if u = g.arcs[int(ai)^1].to; u == v {
				break
			}
		}
		canceled++
	}
}

// relaxEps is the improvement a residual Bellman-Ford relaxation must
// exceed; it keeps float round-off from relaxing forever.
const relaxEps = 1e-12

// bellmanFord is the working memory of the package's one residual
// Bellman-Ford loop, reused across the runs of one call. The counters
// accumulate over those runs.
type bellmanFord struct {
	dist    []float64
	prev    []int32 // arc that last lowered each node, -1 if none
	stamp   []int   // predecessor walk that last visited each node
	walk    int
	rounds  int // rounds run, each run's final no-change round included
	relaxed int // distance lowerings
	early   int // cycles found by the predecessor walk before round n
}

func (g *Graph) newBellmanFord() *bellmanFord {
	return &bellmanFord{
		dist:  make([]float64, g.n),
		prev:  make([]int32, g.n),
		stamp: make([]int, g.n),
	}
}

// run relaxes every residual arc (capacity > 0) from a zero start, nodes
// and their arcs in index order, lowering a distance only when it improves
// by more than relaxEps. A round that lowers nothing ends the run with
// cycle = -1, and dist then holds feasible potentials: every residual arc's
// reduced cost is at least -relaxEps.
//
// Each lowering records its arc as the node's predecessor. After every
// round that changed something, negCycle walks the predecessor arcs in O(n)
// and the run stops at the first cycle of k arcs whose costs sum to
// W < -2(k+1)*relaxEps. A settled run bounds every k-cycle by
// W >= -k*relaxEps, so such a cycle is a genuine negative cycle that the
// plain n-round loop could never have settled. Shallower cycles are left to
// the round cap: after n rounds that all changed something, walking n
// predecessor steps back from the last node lowered lands on a cycle. A
// returned cycle >= 0 is a node on a negative predecessor cycle of prev.
//
// The stop token is checked once per round.
func (b *bellmanFord) run(g *Graph) (cycle int, err error) {
	for i := range b.dist {
		b.dist[i] = 0
		b.prev[i] = -1
	}
	last := -1
	for round := 0; round < g.n; round++ {
		if err := stop.Check(g.Stop, faultinject.SiteMcmfPathCancel); err != nil {
			return -1, err
		}
		b.rounds++
		last = -1
		for u := 0; u < g.n; u++ {
			for _, ai := range g.adj[u] {
				a := &g.arcs[ai]
				if a.cap <= 0 {
					continue
				}
				if nd := b.dist[u] + a.cost; nd < b.dist[a.to]-relaxEps {
					b.dist[a.to] = nd
					b.prev[a.to] = ai
					b.relaxed++
					last = a.to
				}
			}
		}
		if last < 0 {
			return -1, nil
		}
		if v := b.negCycle(g); v >= 0 {
			b.early++
			return v, nil
		}
	}
	v := last
	for i := 0; i < g.n; i++ {
		v = g.arcs[int(b.prev[v])^1].to
	}
	return v, nil
}

// negCycle walks the predecessor graph once, each node at most once, and
// returns a node on the first cycle below the guard -2(k+1)*relaxEps, or -1.
// Walk ids continue across calls, so stamps never need clearing.
func (b *bellmanFord) negCycle(g *Graph) int {
	first := b.walk + 1 // ids of this pass are >= first
	for s := range b.prev {
		if b.stamp[s] >= first {
			continue
		}
		b.walk++
		v := s
		for b.stamp[v] < first {
			b.stamp[v] = b.walk
			if b.prev[v] < 0 {
				break
			}
			v = g.arcs[int(b.prev[v])^1].to
		}
		if b.stamp[v] != b.walk || b.prev[v] < 0 {
			continue // reached a root or a path walked earlier this pass
		}
		w, k := 0.0, 0
		for u := v; ; {
			ai := b.prev[u]
			w += g.arcs[ai].cost
			k++
			if u = g.arcs[int(ai)^1].to; u == v {
				break
			}
		}
		if w < -2*float64(k+1)*relaxEps {
			return v
		}
	}
	return -1
}
