package assign

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/mcmf"
	"rotaryclk/internal/obs"
)

// referenceMinCost is the zero-start solve MinCost ran before the
// cheapest-ring preload, kept verbatim from the graph build on as the
// differential reference: successive shortest paths from zero potentials,
// one augmenting path per flip-flop.
func referenceMinCost(p *Problem, cands [][]candidate) (*Assignment, error) {
	nFF, nR := len(p.FFs), len(p.Array.Rings)
	g := mcmf.NewGraph(2 + nFF + nR)
	g.Obs = p.Obs
	g.Stop = p.Stop
	s, t := 0, 1
	ffNode := func(i int) int { return 2 + i }
	ringNode := func(j int) int { return 2 + nFF + j }
	for i := range p.FFs {
		g.AddArc(s, ffNode(i), 1, 0)
	}
	arcIDs := make([][]mcmf.ArcID, nFF)
	for i, cs := range cands {
		arcIDs[i] = make([]mcmf.ArcID, len(cs))
		for k, c := range cs {
			arcIDs[i][k] = g.AddArc(ffNode(i), ringNode(c.ring), 1, c.cost)
		}
	}
	for j := 0; j < nR; j++ {
		g.AddArc(ringNode(j), t, p.Capacity[j], 0)
	}
	flow, _, err := g.MinCostMaxFlow(s, t)
	if err != nil {
		return nil, fmt.Errorf("assign: flow solve: %w", err)
	}
	if flow < nFF {
		return nil, fmt.Errorf("assign: only %d of %d flip-flops assignable under capacities (increase K or capacity): %w", flow, nFF, ErrInfeasible)
	}
	choice := make([]candidate, nFF)
	for i, cs := range cands {
		found := false
		for k := range cs {
			if g.Flow(arcIDs[i][k]) > 0 {
				choice[i] = cs[k]
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("assign: internal: flip-flop %d carries no flow", i)
		}
	}
	return p.finish(cands, choice, nil), nil
}

// preparedCands normalizes p and builds its candidate matrix, the common
// input of MinCost's solver and the reference.
func preparedCands(t *testing.T, p *Problem) [][]candidate {
	t.Helper()
	if err := p.normalize(); err != nil {
		t.Fatal(err)
	}
	cands, err := p.candidates(nil)
	if err != nil {
		t.Fatal(err)
	}
	return cands
}

// solveBoth runs the preloaded solver and the reference on the same
// candidate matrix; the preloaded side records into reg.
func solveBoth(t *testing.T, p *Problem, cands [][]candidate, reg *obs.Registry) (got, want *Assignment, gotErr, wantErr error) {
	t.Helper()
	p.Obs = nil
	want, wantErr = referenceMinCost(p, cands)
	p.Obs = reg
	choice, price, gotErr := p.solveFlow(nil, cands, nil, nil)
	if gotErr == nil {
		got = p.finish(cands, choice, price)
	}
	return got, want, gotErr, wantErr
}

func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// TestMinCostMatchesReference is the differential test of the cheapest-ring
// start: on random instances — loose and tight capacities, pins, fallback
// rows and the recovery ladder's capacities — the
// preloaded solve must reach the reference's total, and with distinct float
// costs (a unique optimum) the very same rings.
func TestMinCostMatchesReference(t *testing.T) {
	type variant struct {
		name string
		edit func(p *Problem, rng *rand.Rand)
	}
	tight := func(p *Problem, _ *rand.Rand) {
		// Total capacity exactly len(FFs): every ring full at the optimum.
		nR := len(p.Array.Rings)
		p.Capacity = make([]int, nR)
		for i := range p.FFs {
			p.Capacity[i%nR]++
		}
		p.K = nR
	}
	variants := []variant{
		{"loose", func(*Problem, *rand.Rand) {}},
		{"tight", tight},
		{"pin", func(p *Problem, rng *rand.Rand) {
			p.Pin = make([]int, len(p.FFs))
			for i := range p.Pin {
				p.Pin[i] = -1
				if rng.Intn(5) == 0 {
					p.Pin[i] = rng.Intn(len(p.Array.Rings))
				}
			}
			p.TapFallback = true
			p.K = len(p.Array.Rings)
			p.Capacity = make([]int, len(p.Array.Rings))
			for j := range p.Capacity {
				p.Capacity[j] = len(p.FFs)/4 + 2
			}
		}},
		{"ladder", func(p *Problem, rng *rand.Rand) {
			rung := Ladder(len(p.FFs), len(p.Array.Rings))[rng.Intn(3)]
			p.K, p.Capacity, p.TapFallback = rung.K, rung.Capacity, rung.Fallback
		}},
	}
	rng := rand.New(rand.NewSource(19))
	for _, v := range variants {
		for trial := 0; trial < 12; trial++ {
			nFF := 10 + rng.Intn(70)
			p := testProblem(t, nFF, rng.Int63())
			p.Parallelism = 1
			v.edit(p, rng)
			cands := preparedCands(t, p)
			reg := obs.NewRegistry()
			got, want, gotErr, wantErr := solveBoth(t, p, cands, reg)
			name := fmt.Sprintf("%s/%d (nFF=%d)", v.name, trial, nFF)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("%s: error mismatch: got %v, reference %v", name, gotErr, wantErr)
			}
			if wantErr != nil {
				if !errors.Is(gotErr, ErrInfeasible) || !errors.Is(wantErr, ErrInfeasible) {
					t.Fatalf("%s: errors not both infeasible: %v / %v", name, gotErr, wantErr)
				}
				continue
			}
			if !relClose(got.Total, want.Total) {
				t.Fatalf("%s: total %v != reference %v", name, got.Total, want.Total)
			}
			for i := range got.Ring {
				if got.Ring[i] != want.Ring[i] {
					t.Fatalf("%s: flip-flop %d on ring %d, reference %d (distinct costs: unique optimum)", name, i, got.Ring[i], want.Ring[i])
				}
			}
			paths, deficit := reg.Snapshot().Counter("mcmf.paths"), reg.Snapshot().Counter("assign.mincost.deficit")
			if paths != deficit {
				t.Errorf("%s: %d augmenting paths for a deficit of %d", name, paths, deficit)
			}
			if pre := reg.Snapshot().Counter("assign.mincost.preloaded"); pre+deficit != int64(nFF) {
				t.Errorf("%s: preloaded %d + deficit %d != %d flip-flops", name, pre, deficit, nFF)
			}
			if v.name == "loose" && deficit >= int64(nFF) {
				t.Errorf("%s: loose instance routed all %d flip-flops by augmenting paths", name, nFF)
			}
		}
	}
}

// TestMinCostMatchesReferenceFallbackRows fails the tapping solves of the
// first flip-flops by fault injection, so their rows hold a single
// nearest-point fallback candidate among ordinary rows.
func TestMinCostMatchesReferenceFallbackRows(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		restore := faultinject.Enable(faultinject.Rule{
			Site: faultinject.SiteRotarySolveTap, Count: 6 * int(seed), Err: errors.New("injected tapping fault"),
		})
		p := testProblem(t, 30, seed)
		p.Parallelism = 1
		p.TapFallback = true
		cands := preparedCands(t, p)
		restore()
		if !cands[0][0].fallback {
			t.Fatalf("seed %d: first row is not a fallback row", seed)
		}
		got, want, gotErr, wantErr := solveBoth(t, p, cands, nil)
		if gotErr != nil || wantErr != nil {
			t.Fatalf("seed %d: errors %v / %v", seed, gotErr, wantErr)
		}
		if !relClose(got.Total, want.Total) {
			t.Fatalf("seed %d: total %v != reference %v", seed, got.Total, want.Total)
		}
		if fmt.Sprint(got.Ring) != fmt.Sprint(want.Ring) || fmt.Sprint(got.Fallbacks) != fmt.Sprint(want.Fallbacks) {
			t.Fatalf("seed %d: rings %v / fallbacks %v, reference %v / %v", seed, got.Ring, got.Fallbacks, want.Ring, want.Fallbacks)
		}
	}
}

// integerCands draws candidate rows with small integer costs, so optima
// tie; rows are sorted by cost with ties in draw order, as candidates()
// sorts them.
func integerCands(rng *rand.Rand, nFF, nR, k int) [][]candidate {
	cands := make([][]candidate, nFF)
	for i := range cands {
		for _, j := range rng.Perm(nR)[:k] {
			c := candidate{ring: j, cost: float64(rng.Intn(6))}
			row := append(cands[i], c)
			for pos := len(row) - 1; pos > 0 && row[pos-1].cost > c.cost; pos-- {
				row[pos], row[pos-1] = row[pos-1], row[pos]
			}
			cands[i] = row
		}
	}
	return cands
}

// TestMinCostMatchesReferenceIntegerTies: with tied integer costs the
// preloaded solve may pick another optimum, but never another total.
func TestMinCostMatchesReferenceIntegerTies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		nFF := 5 + rng.Intn(40)
		p := testProblem(t, nFF, int64(trial))
		nR := len(p.Array.Rings)
		p.Capacity = make([]int, nR)
		for j := range p.Capacity {
			p.Capacity[j] = 1 + rng.Intn(nFF/nR+2)
		}
		cands := integerCands(rng, nFF, nR, 1+rng.Intn(nR))
		got, want, gotErr, wantErr := solveBoth(t, p, cands, nil)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("trial %d: error mismatch: got %v, reference %v", trial, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if got.Total != want.Total {
			t.Fatalf("trial %d: total %v != reference %v", trial, got.Total, want.Total)
		}
		counts := make([]int, nR)
		for _, r := range got.Ring {
			if counts[r]++; counts[r] > p.Capacity[r] {
				t.Fatalf("trial %d: ring %d over capacity", trial, r)
			}
		}
	}
}

// TestPreloadDualFeasible checks the priced preload's closed-form duals on
// the preloaded network itself, before any augmenting path: every residual
// arc that does not enter the source has a non-negative reduced cost, up to
// the float slack Dijkstra's clamp absorbs (1e-9 relative to the largest
// potential, which also covers keepTol). It runs with no prices (the
// cheapest-ring start), random prices, huge prices (1e4 times the largest
// cost), stale prices taken from the final solve of another instance, and
// the instance's own optimum: its final prices and rings, with a few rings
// moved to another candidate that the preload must refuse unless it ties;
// every priced ring left with room must have lost its price.
func TestPreloadDualFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20; trial++ {
		nFF := 20 + rng.Intn(60)
		p := testProblem(t, nFF, rng.Int63())
		if trial%2 == 1 {
			// Capacity just above the average load fills the crowded rings.
			p.Capacity = make([]int, len(p.Array.Rings))
			for j := range p.Capacity {
				p.Capacity[j] = nFF/len(p.Capacity) + 1
			}
			p.K = len(p.Array.Rings)
		}
		cands := preparedCands(t, p)
		nR := len(p.Array.Rings)
		maxCost := 0.0
		for _, cs := range cands {
			maxCost = math.Max(maxCost, cs[len(cs)-1].cost)
		}
		other := testProblem(t, 30+rng.Intn(40), rng.Int63())
		if trial%2 == 1 {
			other.Capacity = make([]int, nR)
			for j := range other.Capacity {
				other.Capacity[j] = len(other.FFs)/nR + 1
			}
		}
		_, stale, err := other.solveFlow(nil, preparedCands(t, other), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		own, final, err := p.solveFlow(nil, cands, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		prev := make([]int, nFF)
		for i, c := range own {
			prev[i] = c.ring
			if rng.Intn(8) == 0 {
				prev[i] = cands[i][rng.Intn(len(cands[i]))].ring
			}
		}
		random, huge := make([]float64, nR), make([]float64, nR)
		for j := 0; j < nR; j++ {
			if rng.Intn(3) > 0 {
				random[j] = rng.Float64() * maxCost
			}
			huge[j] = 1e4 * maxCost * (1 + rng.Float64())
		}
		ws := &Workspace{} // refilled by every case
		for _, tc := range []struct {
			name  string
			price []float64
			prev  []int
		}{{"none", nil, nil}, {"random", random, nil}, {"huge", huge, nil}, {"stale", stale, nil}, {"previous", final, prev}} {
			name, price := tc.name, tc.price
			reg := obs.NewRegistry()
			p.Obs = reg
			n := &ws.net
			p.newNetwork(n, cands)
			pot := p.preloadPriced(ws, price, tc.prev)
			tol := 0.0
			for _, v := range pot {
				tol = math.Max(tol, 1e-9*math.Abs(v))
			}
			ringNode := func(j int) int { return ffBase + nFF + j }
			check := func(a mcmf.ArcID, u, v int, cost float64) {
				g := n.g
				rc := cost + pot[u] - pot[v]
				if g.Flow(a) < g.Capacity(a) && v != srcNode && rc < -tol {
					t.Fatalf("trial %d, %s prices: forward arc %d->%d has reduced cost %v", trial, name, u, v, rc)
				}
				if g.Flow(a) > 0 && u != srcNode && -rc < -tol {
					t.Fatalf("trial %d, %s prices: reverse arc %d->%d has reduced cost %v", trial, name, v, u, -rc)
				}
			}
			for i, cs := range cands {
				check(n.src[i], srcNode, ffBase+i, 0)
				for k, c := range cs {
					check(n.arcs[i][k], ffBase+i, ringNode(c.ring), c.cost)
				}
			}
			used := 0
			for j, a := range n.sink {
				check(a, ringNode(j), sinkNode, 0)
				used += n.g.Flow(a)
			}
			if used != n.preloaded || n.preloaded == 0 || (trial%2 == 1 && n.preloaded == nFF && tc.prev == nil) {
				t.Fatalf("trial %d, %s prices: %d of %d flip-flops preloaded, %d on rings", trial, name, n.preloaded, nFF, used)
			}
			if name == "previous" && reg.Snapshot().Counter("assign.preload.kept") == 0 {
				t.Fatalf("trial %d: no flip-flop kept on its previous ring", trial)
			}
			if name == "none" && reg.Snapshot().Counter("assign.preload.repairs") != 0 {
				t.Fatalf("trial %d: repaired prices that were never set", trial)
			}
			if name == "huge" && reg.Snapshot().Counter("assign.preload.repairs") == 0 && n.preloaded < nFF {
				t.Fatalf("trial %d: huge prices on every ring, some left with room, none dropped", trial)
			}
		}
	}
}
