package timing

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
)

// diffCircuits generates the differential corpus: 24 generated circuits
// of assorted sizes, every other one with self-loops spliced in (a
// flip-flop on its own fanout net, and a flip-flop fed back from a gate it
// drives), and every third one collapsed onto a 4x4 grid of positions so
// that equal arrivals tie.
func diffCircuits(t *testing.T) []*netlist.Circuit {
	t.Helper()
	var out []*netlist.Circuit
	for seed := int64(1); seed <= 24; seed++ {
		cells := 120 + int(seed)*37
		c, err := netlist.Generate(netlist.GenSpec{Name: "diff", Cells: cells, FlipFlops: cells / 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		if seed%2 == 0 {
			ffs := c.FlipFlops()
			for j := 0; j < 3; j++ {
				f := c.Cells[ffs[rng.Intn(len(ffs))]]
				if f.Fanout < 0 {
					continue
				}
				q := c.Nets[f.Fanout]
				if j == 0 {
					q.Pins = append(q.Pins, f.ID)
					f.Fanin = append(f.Fanin, q.ID)
					continue
				}
				g := c.Cells[q.Pins[1+rng.Intn(len(q.Pins)-1)]]
				if g.Kind != netlist.Gate || g.Fanout < 0 {
					continue
				}
				d := c.Nets[g.Fanout]
				d.Pins = append(d.Pins, f.ID)
				f.Fanin = append(f.Fanin, d.ID)
			}
		}
		if seed%3 == 0 {
			for _, cell := range c.Cells {
				cell.Pos = geom.Pt(float64(rng.Intn(4))*100, float64(rng.Intn(4))*100)
			}
		}
		out = append(out, c)
	}
	return out
}

func samePairs(t *testing.T, ci int, got, want []Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("circuit %d: %d pairs, reference %d", ci, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.From != w.From || g.To != w.To ||
			math.Float64bits(g.DMax) != math.Float64bits(w.DMax) ||
			math.Float64bits(g.DMin) != math.Float64bits(w.DMin) {
			t.Fatalf("circuit %d pair %d: %+v, reference %+v", ci, i, g, w)
		}
	}
}

// TestAnalyzeMatchesReference: Analyze on the shared propagation returns
// the reference's pairs in the reference's order, bit for bit, and the
// same MaxComb.
func TestAnalyzeMatchesReference(t *testing.T) {
	m := DefaultModel()
	selfLoops := 0
	for ci, c := range diffCircuits(t) {
		got, err := Analyze(c, m)
		if err != nil {
			t.Fatalf("circuit %d: %v", ci, err)
		}
		want, err := refAnalyze(c, m)
		if err != nil {
			t.Fatalf("circuit %d: reference: %v", ci, err)
		}
		samePairs(t, ci, got.Pairs, want.Pairs)
		if math.Float64bits(got.MaxComb) != math.Float64bits(want.MaxComb) {
			t.Fatalf("circuit %d: MaxComb %v, reference %v", ci, got.MaxComb, want.MaxComb)
		}
		for _, p := range want.Pairs {
			if p.From == p.To {
				selfLoops++
			}
		}
	}
	if selfLoops == 0 {
		t.Fatal("corpus has no self-loop pairs")
	}
}

// TestExtractCriticalMatchesReference: ExtractCritical on the shared
// propagation returns the reference's paths in the reference's order, with
// bit-equal pairs and slacks and identical net trails, for a k that keeps
// every path and one that truncates.
func TestExtractCriticalMatchesReference(t *testing.T) {
	m := DefaultModel()
	slackOf := zeroSkew(m, 1000)
	for ci, c := range diffCircuits(t) {
		for _, k := range []int{5, math.MaxInt32} {
			got, err := ExtractCritical(c, m, slackOf, k)
			if err != nil {
				t.Fatalf("circuit %d: %v", ci, err)
			}
			want, err := refExtractCritical(c, m, slackOf, k)
			if err != nil {
				t.Fatalf("circuit %d: reference: %v", ci, err)
			}
			gp := make([]Pair, len(got))
			wp := make([]Pair, len(want))
			for i := range got {
				gp[i] = got[i].Pair
			}
			for i := range want {
				wp[i] = want[i].Pair
			}
			samePairs(t, ci, gp, wp)
			for i := range got {
				if math.Float64bits(got[i].Slack) != math.Float64bits(want[i].Slack) {
					t.Fatalf("circuit %d path %d: slack %v, reference %v", ci, i, got[i].Slack, want[i].Slack)
				}
				if !slices.Equal(got[i].Nets, want[i].Nets) {
					t.Fatalf("circuit %d path %d: nets %v, reference %v", ci, i, got[i].Nets, want[i].Nets)
				}
			}
		}
	}
}

// refAnalyze is a verbatim copy of Analyze before the cone propagation
// moved into propagate: the reference the differential tests hold it to.
func refAnalyze(c *netlist.Circuit, m Model) (*Result, error) {
	n := len(c.Cells)
	adj := buildArcs(c, m)
	topoIdx, err := topoOrder(chunk(adj), kinds(c), &Workspace{})
	if err != nil {
		return nil, err
	}

	dmax := make([]float64, n)
	dmin := make([]float64, n)
	stamp := make([]int, n)
	epoch := 0
	pairIdx := map[int64]int{}
	res := &Result{}
	reach := make([]int, 0, n)

	for _, src := range c.FlipFlops() {
		epoch++
		// Discover the combinational cone of src (stop at flip-flops).
		reach = reach[:0]
		stamp[src] = epoch
		reach = append(reach, src)
		for qi := 0; qi < len(reach); qi++ {
			u := reach[qi]
			if u != src && c.Cells[u].Kind == netlist.FF {
				continue
			}
			for _, e := range adj[u] {
				if stamp[e.to] != epoch {
					stamp[e.to] = epoch
					reach = append(reach, e.to)
				}
			}
		}
		// Relax in topological order.
		sort.Slice(reach, func(a, b int) bool { return topoIdx[reach[a]] < topoIdx[reach[b]] })
		for _, u := range reach {
			dmax[u], dmin[u] = math.Inf(-1), math.Inf(1)
		}
		dmax[src], dmin[src] = 0, 0
		// Self-loop paths (src back to its own D input) are tracked
		// separately so they cannot corrupt the source seed.
		selfMax, selfMin := math.Inf(-1), math.Inf(1)
		for _, u := range reach {
			if (u != src && c.Cells[u].Kind == netlist.FF) || math.IsInf(dmax[u], -1) {
				continue
			}
			for _, e := range adj[u] {
				v := e.to
				if stamp[v] != epoch {
					continue
				}
				if v == src {
					selfMax = math.Max(selfMax, dmax[u]+e.delay)
					selfMin = math.Min(selfMin, dmin[u]+e.delay)
					continue
				}
				if d := dmax[u] + e.delay; d > dmax[v] {
					dmax[v] = d
				}
				if d := dmin[u] + e.delay; d < dmin[v] {
					dmin[v] = d
				}
			}
		}
		// Record flip-flop capture points (including self-loops).
		record := func(v int, dMax, dMin float64) {
			key := int64(src)<<32 | int64(v)
			if pi, ok := pairIdx[key]; ok {
				p := &res.Pairs[pi]
				p.DMax = math.Max(p.DMax, dMax)
				p.DMin = math.Min(p.DMin, dMin)
			} else {
				pairIdx[key] = len(res.Pairs)
				res.Pairs = append(res.Pairs, Pair{From: src, To: v, DMax: dMax, DMin: dMin})
			}
			if dMax > res.MaxComb {
				res.MaxComb = dMax
			}
		}
		if !math.IsInf(selfMax, -1) {
			record(src, selfMax, selfMin)
		}
		for _, v := range reach {
			if v == src || c.Cells[v].Kind != netlist.FF || math.IsInf(dmax[v], -1) {
				continue
			}
			record(v, dmax[v], dmin[v])
		}
	}
	return res, nil
}

// refExtractCritical is a verbatim copy of ExtractCritical before it
// shared propagate with Analyze.
func refExtractCritical(c *netlist.Circuit, m Model, slackOf func(Pair) float64, k int) ([]CriticalPath, error) {
	if k <= 0 {
		return nil, nil
	}
	n := len(c.Cells)
	adj := buildArcs(c, m)
	topoIdx, err := topoOrder(chunk(adj), kinds(c), &Workspace{})
	if err != nil {
		return nil, err
	}

	dmax := make([]float64, n)
	dmin := make([]float64, n)
	predU := make([]int32, n)
	predNet := make([]int32, n)
	stamp := make([]int, n)
	epoch := 0
	reach := make([]int, 0, n)
	var paths []CriticalPath

	// traceNets walks the predecessor chain from v back to src and returns
	// the crossed nets in launch-to-capture order. tail, when >= 0, is the
	// closing arc of a self-loop path (appended last).
	traceNets := func(src, v int, tail int32) []int {
		var rev []int
		if tail >= 0 {
			rev = append(rev, int(tail))
		}
		for u := v; u != src; u = int(predU[u]) {
			rev = append(rev, int(predNet[u]))
		}
		nets := make([]int, 0, len(rev))
		for i := len(rev) - 1; i >= 0; i-- {
			nets = append(nets, rev[i])
		}
		return nets
	}

	for _, src := range c.FlipFlops() {
		epoch++
		reach = reach[:0]
		stamp[src] = epoch
		reach = append(reach, src)
		for qi := 0; qi < len(reach); qi++ {
			u := reach[qi]
			if u != src && c.Cells[u].Kind == netlist.FF {
				continue
			}
			for _, e := range adj[u] {
				if stamp[e.to] != epoch {
					stamp[e.to] = epoch
					reach = append(reach, e.to)
				}
			}
		}
		sort.Slice(reach, func(a, b int) bool { return topoIdx[reach[a]] < topoIdx[reach[b]] })
		for _, u := range reach {
			dmax[u], dmin[u] = math.Inf(-1), math.Inf(1)
			predU[u], predNet[u] = -1, -1
		}
		dmax[src], dmin[src] = 0, 0
		selfMax, selfMin := math.Inf(-1), math.Inf(1)
		selfU, selfNet := int32(-1), int32(-1)
		for _, u := range reach {
			if (u != src && c.Cells[u].Kind == netlist.FF) || math.IsInf(dmax[u], -1) {
				continue
			}
			for _, e := range adj[u] {
				v := e.to
				if stamp[v] != epoch {
					continue
				}
				if v == src {
					if d := dmax[u] + e.delay; d > selfMax {
						selfMax, selfU, selfNet = d, int32(u), e.net
					}
					selfMin = math.Min(selfMin, dmin[u]+e.delay)
					continue
				}
				if d := dmax[u] + e.delay; d > dmax[v] {
					dmax[v] = d
					predU[v], predNet[v] = int32(u), e.net
				}
				if d := dmin[u] + e.delay; d < dmin[v] {
					dmin[v] = d
				}
			}
		}
		if !math.IsInf(selfMax, -1) {
			p := Pair{From: src, To: src, DMax: selfMax, DMin: selfMin}
			paths = append(paths, CriticalPath{
				Pair:  p,
				Slack: slackOf(p),
				Nets:  traceNets(src, int(selfU), selfNet),
			})
		}
		for _, v := range reach {
			if v == src || c.Cells[v].Kind != netlist.FF || math.IsInf(dmax[v], -1) {
				continue
			}
			p := Pair{From: src, To: v, DMax: dmax[v], DMin: dmin[v]}
			paths = append(paths, CriticalPath{
				Pair:  p,
				Slack: slackOf(p),
				Nets:  traceNets(src, v, -1),
			})
		}
	}

	sort.Slice(paths, func(a, b int) bool {
		if paths[a].Slack != paths[b].Slack {
			return paths[a].Slack < paths[b].Slack
		}
		if paths[a].Pair.From != paths[b].Pair.From {
			return paths[a].Pair.From < paths[b].Pair.From
		}
		return paths[a].Pair.To < paths[b].Pair.To
	})
	if len(paths) > k {
		paths = paths[:k]
	}
	return paths, nil
}
