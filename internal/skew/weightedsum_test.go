package skew

import (
	"math"
	"math/rand"
	"testing"

	"rotaryclk/internal/mcmf"
	"rotaryclk/internal/obs"
)

// referenceResidualDistances is the residual Bellman-Ford that WeightedSum
// recovered its schedule with before it moved onto relax
// (mcmf.(*Graph).ResidualDistances), verbatim except that it reads the
// residual arcs through ResidualArcs instead of the graph's internals: the
// arcs with no capacity left, which it skipped, never appear.
func referenceResidualDistances(g *mcmf.Graph, src int) (dist []float64, ok bool) {
	type arc struct {
		to   int
		cost float64
	}
	n := g.NumNodes()
	adj := make([][]arc, n)
	g.ResidualArcs(func(from, to int, cost float64) { adj[from] = append(adj[from], arc{to, cost}) })
	dist = make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for iter := 0; iter <= n; iter++ {
		changed := false
		for u := 0; u < n; u++ {
			if math.IsInf(dist[u], 1) {
				continue
			}
			for _, a := range adj[u] {
				if nd := dist[u] + a.cost; nd < dist[a.to]-1e-9 {
					dist[a.to] = nd
					changed = true
				}
			}
		}
		if !changed {
			return dist, true
		}
	}
	return dist, false
}

// TestWeightedSumMatchesResidualDistances is the differential test of
// WeightedSum's schedule recovery: on the optimal circulation of random
// raw and Fishburn-shaped instances, plus the fixed instances of the
// WeightedSum tests, relax from ground must return distances Float64bits-equal to
// the reference residual Bellman-Ford, and record its probe into the
// caller's registry.
func TestWeightedSumMatchesResidualDistances(t *testing.T) {
	type instance struct {
		n                int
		cons             []DiffConstraint
		targets, weights []float64
	}
	insts := []instance{
		{3, nil, []float64{100, 200, 300}, []float64{1, 2, 3}},
		{2, []DiffConstraint{{U: 1, V: 0, Bound: 100}}, []float64{0, 500}, []float64{1, 3}},
	}
	rng := rand.New(rand.NewSource(31))
	for len(insts) < 400 {
		n := 2 + rng.Intn(7)
		var cons []DiffConstraint
		if len(insts)%2 == 0 {
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if u != v && rng.Float64() < 0.45 {
						cons = append(cons, DiffConstraint{U: u, V: v, Bound: float64(rng.Intn(300)) - 50})
					}
				}
			}
		} else {
			cons = Constraints(nil, buildRandomPairs(rng, n), propT, rng.Float64()*100, propSetup, propHold)
		}
		if _, ok := Feasible(n, cons); !ok {
			continue
		}
		targets := make([]float64, n)
		weights := make([]float64, n)
		for i := range targets {
			targets[i] = rng.Float64() * 1000
			weights[i] = 0.5 + rng.Float64()*20
		}
		insts = append(insts, instance{n, cons, targets, weights})
	}
	for k, in := range insts {
		g, err := weightedSumCirculation(nil, nil, in.n, in.cons, in.targets, in.weights)
		if err != nil {
			t.Fatalf("instance %d: %v", k, err)
		}
		want, ok := referenceResidualDistances(g, in.n)
		if !ok {
			t.Fatalf("instance %d: reference saw a negative residual cycle", k)
		}
		reg := obs.NewRegistry()
		got, err := distancesFrom(nil, reg, g, in.n)
		if err != nil {
			t.Fatalf("instance %d: %v", k, err)
		}
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("instance %d: node %d distance %v, reference %v", k, v, got[v], want[v])
			}
		}
		if p := reg.Snapshot().Counter("skew.probes"); p != 1 {
			t.Fatalf("instance %d: %d probes recorded, want 1", k, p)
		}
	}
	reg := obs.NewRegistry()
	in := insts[1]
	if _, _, err := WeightedSum(nil, reg, in.n, in.cons, in.targets, in.weights); err != nil {
		t.Fatal(err)
	}
	if p := reg.Snapshot().Counter("skew.probes"); p != 2 {
		t.Errorf("WeightedSum recorded %d skew probes, want 2 (feasibility and recovery)", p)
	}
}
