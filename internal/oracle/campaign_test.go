package oracle

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"rotaryclk/internal/core"
	"rotaryclk/internal/eco"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/rotary"
	"rotaryclk/internal/skew"
)

// TestCampaign is the differential-testing campaign: seeds 1-200 through
// every reference solver and metamorphic oracle, the full-flow translation
// check on every 10th seed and the ECO-vs-scratch check on every 5th. Clean
// production code must come back violation-free, and every oracle must run
// exactly its count of checks, so a check that stops running fails the
// test instead of passing in silence. A violation leaves its shrunk repro
// under testdata/repros/.
func TestCampaign(t *testing.T) {
	rep := runCampaign(t, 200, 10, 5, filepath.Join("testdata", "repros"))
	for _, v := range rep.violations {
		t.Errorf("violation: %v", &v)
	}
	want := map[string]int{
		"assign/mincost":    200,
		"assign/minmaxcap":  200,
		"assign/scale":      200,
		"assign/permute":    200,
		"assign/tighten":    200,
		"assign/lp":         240, // every seed, plus the large arm on every 5th
		"rotary/tapscan":    400, // two queries per seed
		"skew/maxslack":     200,
		"skew/mindelta":     200,
		"placer/densesolve": 200,
		"core/translate":    20,
		"eco/scratch":       40,
	}
	total := 0
	for name, n := range rep.checks {
		total += n
		if n != want[name] {
			t.Errorf("%s ran %d checks, want %d", name, n, want[name])
		}
	}
	for name, n := range want {
		if rep.checks[name] == 0 {
			t.Errorf("%s ran no checks, want %d", name, n)
		}
	}
	if total != 2300 {
		t.Errorf("%d checks, want 2300", total)
	}
	t.Logf("200 seeds, %d checks, %d violations", total, len(rep.violations))
}

// genAssign draws a small random assignment instance: a jittered grid of
// 4-9 rings with random phases and rotation directions, 4-9 flip-flops
// scattered over the array, delay targets uniform over the period.
func genAssign(rng *rand.Rand) *AssignInstance {
	return genAssignSized(rng, 4+rng.Intn(6), 4+rng.Intn(6), 3+rng.Intn(2))
}

// genAssignLarge draws a large sparse assignment instance — 9-16 rings,
// 40-120 flip-flops — beyond the brute-force checks' reach but exactly the
// shape CheckAssignLP's sparse-vs-dense LP comparison scales to.
func genAssignLarge(rng *rand.Rand) *AssignInstance {
	return genAssignSized(rng, 9+rng.Intn(8), 40+rng.Intn(81), 4+rng.Intn(3))
}

// genAssignSized draws an assignment instance of nRings rings on a jittered
// 700 um grid and nFF flip-flops uniform over it, with candidate width k.
// The callers draw the three sizes first, in argument order.
func genAssignSized(rng *rand.Rand, nRings, nFF, k int) *AssignInstance {
	params := rotary.DefaultParams()
	in := &AssignInstance{Params: params, K: k}
	nx := int(math.Ceil(math.Sqrt(float64(nRings))))
	const tile = 700.0
	for j := 0; j < nRings; j++ {
		cx := float64(j%nx)*tile + tile/2 + (rng.Float64()-0.5)*100
		cy := float64(j/nx)*tile + tile/2 + (rng.Float64()-0.5)*100
		dir := 1
		if rng.Intn(2) == 1 {
			dir = -1
		}
		in.Rings = append(in.Rings, RingSpec{
			Center: geom.Pt(cx, cy),
			Side:   300 + rng.Float64()*250,
			Dir:    dir,
			T0:     rng.Float64() * params.Period,
		})
	}
	span := float64(nx) * tile
	for i := 0; i < nFF; i++ {
		in.FFs = append(in.FFs, FFSpec{
			Pos:    geom.Pt(rng.Float64()*span, rng.Float64()*span),
			Target: rng.Float64() * params.Period,
		})
	}
	return in
}

// genTap draws one random tapping query against a single random ring.
func genTap(rng *rand.Rand) *TapInstance {
	params := rotary.DefaultParams()
	side := 200 + rng.Float64()*400
	dir := 1
	if rng.Intn(2) == 1 {
		dir = -1
	}
	center := geom.Pt(500+(rng.Float64()-0.5)*200, 500+(rng.Float64()-0.5)*200)
	return &TapInstance{
		Params: params,
		Ring:   RingSpec{Center: center, Side: side, Dir: dir, T0: rng.Float64() * params.Period},
		FF: geom.Pt(center.X+(rng.Float64()-0.5)*3*side,
			center.Y+(rng.Float64()-0.5)*3*side),
		Target: rng.Float64() * params.Period,
	}
}

// genSkew draws a random sequential graph: 3-8 flip-flops, pairs with
// random extreme delays (self-loops included), at the default 1 GHz timing.
func genSkew(rng *rand.Rand) *SkewInstance {
	n := 3 + rng.Intn(6)
	in := &SkewInstance{N: n, T: 1000, Setup: 30, Hold: 15}
	np := n + rng.Intn(2*n)
	for i := 0; i < np; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		dmax := 100 + rng.Float64()*850
		dmin := rng.Float64() * dmax
		in.Pairs = append(in.Pairs, skew.SeqPair{U: u, V: v, DMax: dmax, DMin: dmin})
	}
	return in
}

// genMinDelta draws a cost-driven skew instance: a genSkew sequential graph
// at 5 ps below its reference max slack (so the base system is feasible)
// and one ring anchor per flip-flop with a phase uniform over the period and
// a stub delay up to 40 ps.
func genMinDelta(rng *rand.Rand) *SkewInstance {
	in := genSkew(rng)
	m, ok := refMaxSlack(in, 1e-3)
	if !ok {
		return nil
	}
	in.Slack = m - 5
	for i := 0; i < in.N; i++ {
		in.Anchors = append(in.Anchors, skew.Anchor{A: rng.Float64() * in.T, TCI: rng.Float64() * 40})
	}
	return in
}

// genPlace draws a tiny placement instance: 5-12 cells (a couple fixed on
// the boundary), random 2-4 pin nets with distinct drivers, and an optional
// pseudo-net overlay.
func genPlace(rng *rand.Rand) *PlaceInstance {
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 800))
	n := 5 + rng.Intn(8)
	in := &PlaceInstance{Die: die}
	for i := 0; i < n; i++ {
		pos := geom.Pt(rng.Float64()*1000, rng.Float64()*800)
		fixed := i < 2 // first two cells are boundary pads
		if fixed {
			pos = geom.Pt(rng.Float64()*1000, float64(i%2)*800)
		}
		in.Cells = append(in.Cells, PlaceCell{Pos: pos, Fixed: fixed})
	}
	drivers := rng.Perm(n)
	nNets := 2 + rng.Intn(n/2+1)
	if nNets > n {
		nNets = n
	}
	for ni := 0; ni < nNets; ni++ {
		driver := drivers[ni]
		pins := []int{driver}
		seen := map[int]bool{driver: true}
		for s := 0; s < 1+rng.Intn(3); s++ {
			id := rng.Intn(n)
			if !seen[id] {
				seen[id] = true
				pins = append(pins, id)
			}
		}
		if len(pins) >= 2 {
			in.Nets = append(in.Nets, pins)
		}
	}
	for i := 0; i < rng.Intn(3); i++ {
		in.Pseudo = append(in.Pseudo, PseudoSpec{
			Cell:   rng.Intn(n),
			Target: geom.Pt(rng.Float64()*1000, rng.Float64()*800),
			Weight: 1 + rng.Float64()*7,
		})
	}
	anchorFloating(in, rng)
	return in
}

// anchorFloating pins every floating component of movable cells (no fixed
// pin and no pseudo anchor reachable through its nets) with a unit pseudo
// net, so the quadratic system is non-singular and the dense reference
// applies.
func anchorFloating(in *PlaceInstance, rng *rand.Rand) {
	n := len(in.Cells)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, pins := range in.Nets {
		for _, id := range pins[1:] {
			parent[find(pins[0])] = find(id)
		}
	}
	anchored := make(map[int]bool)
	for i, c := range in.Cells {
		if c.Fixed {
			anchored[find(i)] = true
		}
	}
	for _, pn := range in.Pseudo {
		if pn.Weight > 0 && !in.Cells[pn.Cell].Fixed {
			anchored[find(pn.Cell)] = true
		}
	}
	for i := range in.Cells {
		if r := find(i); !anchored[r] {
			anchored[r] = true
			in.Pseudo = append(in.Pseudo, PseudoSpec{
				Cell:   i,
				Target: geom.Pt(rng.Float64()*1000, rng.Float64()*800),
				Weight: 1,
			})
		}
	}
}

// FlowSpec is the generated-circuit configuration of one full-flow
// translation check, serialized into its repro.
type FlowSpec struct {
	Spec  netlist.GenSpec
	Delta geom.Point
}

func flowConfig() core.Config {
	return core.Config{NumRings: 4, MaxIters: 2, Parallelism: 1}
}

// report summarizes a campaign run.
type report struct {
	checks     map[string]int // checks run, by oracle name
	violations []Violation    // every violation observed (pre-shrink)
	repros     []string       // paths of written repro files
}

// runCampaign drives seeds 1..seeds through every oracle, running the
// full-flow translation check on every fullFlowEvery-th seed and the
// ECO-vs-scratch check on every ecoEvery-th (0 never). Each violation is
// shrunk while it still reproduces and written as a JSON repro under dir;
// t fails at once if a repro cannot be written, and logs each path.
func runCampaign(t *testing.T, seeds, fullFlowEvery, ecoEvery int, dir string) *report {
	t.Helper()
	rep := &report{checks: map[string]int{}}
	record := func(vs []Violation, r *Repro) {
		rep.violations = append(rep.violations, vs...)
		if r == nil || len(vs) == 0 {
			return
		}
		r.Oracle = vs[0].Oracle
		r.Seed = vs[0].Seed
		r.Detail = vs[0].Detail
		path, err := WriteRepro(dir, r)
		if err != nil {
			t.Fatalf("%v: %v", vs[0].Error(), err)
		}
		rep.repros = append(rep.repros, path)
		t.Logf("%v: repro %s", vs[0].Error(), path)
	}
	check := func(name string, vs []Violation) []Violation { rep.checks[name]++; return vs }

	for i := 0; i < seeds; i++ {
		seed := int64(i + 1)
		rng := rand.New(rand.NewSource(seed))

		ai := genAssign(rng)
		if vs := check("assign/mincost", CheckMinCost(ai, seed)); len(vs) > 0 {
			sh := shrinkAssign(ai, func(c *AssignInstance) bool { return len(CheckMinCost(c, seed)) > 0 })
			record(vs, &Repro{Assign: sh})
		}
		if vs := check("assign/minmaxcap", CheckMinMaxCap(ai, seed)); len(vs) > 0 {
			sh := shrinkAssign(ai, func(c *AssignInstance) bool { return len(CheckMinMaxCap(c, seed)) > 0 })
			record(vs, &Repro{Assign: sh})
		}
		if vs := check("assign/scale", CheckScale(ai, seed)); len(vs) > 0 {
			sh := shrinkAssign(ai, func(c *AssignInstance) bool { return len(CheckScale(c, seed)) > 0 })
			record(vs, &Repro{Assign: sh})
		}
		perm := rng.Perm(len(ai.FFs))
		if vs := check("assign/permute", CheckPermute(ai, perm, seed)); len(vs) > 0 {
			sh := shrinkAssign(ai, func(c *AssignInstance) bool {
				rev := make([]int, len(c.FFs))
				for k := range rev {
					rev[k] = len(rev) - 1 - k
				}
				return len(CheckPermute(c, rev, seed)) > 0
			})
			record(vs, &Repro{Assign: sh})
		}
		if vs := check("assign/tighten", CheckTighten(ai, seed)); len(vs) > 0 {
			sh := shrinkAssign(ai, func(c *AssignInstance) bool { return len(CheckTighten(c, seed)) > 0 })
			record(vs, &Repro{Assign: sh})
		}
		if vs := check("assign/lp", CheckAssignLP(ai, seed)); len(vs) > 0 {
			sh := shrinkAssign(ai, func(c *AssignInstance) bool { return len(CheckAssignLP(c, seed)) > 0 })
			record(vs, &Repro{Assign: sh})
		}
		if i%5 == 0 {
			// Large sparse arm: exercises the GUB simplex on candidate sets
			// far beyond the brute-force budget.
			al := genAssignLarge(rng)
			if vs := check("assign/lp", CheckAssignLP(al, seed)); len(vs) > 0 {
				sh := shrinkAssign(al, func(c *AssignInstance) bool { return len(CheckAssignLP(c, seed)) > 0 })
				record(vs, &Repro{Assign: sh})
			}
		}

		for t := 0; t < 2; t++ {
			ti := genTap(rng)
			if vs := check("rotary/tapscan", CheckTap(ti, seed)); len(vs) > 0 {
				record(vs, &Repro{Tap: ti}) // a tap instance is already minimal
			}
		}

		si := genSkew(rng)
		if vs := check("skew/maxslack", CheckSkew(si, seed)); len(vs) > 0 {
			sh := shrinkSkew(si, func(c *SkewInstance) bool { return len(CheckSkew(c, seed)) > 0 })
			record(vs, &Repro{Skew: sh})
		}

		// The min-Delta instance draws from its own stream so the instances
		// of every other check stay what they were for this seed.
		if di := genMinDelta(rand.New(rand.NewSource(seed + 1<<32))); di != nil {
			if vs := check("skew/mindelta", CheckMinDelta(di, seed)); len(vs) > 0 {
				sh := shrinkSkew(di, func(c *SkewInstance) bool { return len(CheckMinDelta(c, seed)) > 0 })
				record(vs, &Repro{Skew: sh})
			}
		}

		pi := genPlace(rng)
		if vs := check("placer/densesolve", CheckPlace(pi, seed)); len(vs) > 0 {
			sh := shrinkPlace(pi, func(c *PlaceInstance) bool { return len(CheckPlace(c, seed)) > 0 })
			record(vs, &Repro{Place: sh})
		}

		if fullFlowEvery > 0 && i%fullFlowEvery == 0 {
			spec := netlist.GenSpec{
				Cells:     30 + rng.Intn(20),
				FlipFlops: 5 + rng.Intn(4),
				Seed:      seed,
			}
			delta := geom.Pt(1000+rng.Float64()*2000, -500-rng.Float64()*1000)
			if vs := check("core/translate", CheckTranslate(spec, flowConfig(), delta, seed)); len(vs) > 0 {
				record(vs, &Repro{Flow: &FlowSpec{Spec: spec, Delta: delta}})
			}
		}

		if ecoEvery > 0 && i%ecoEvery == 0 {
			es := &ECOSpec{Spec: netlist.GenSpec{
				Cells:     40 + rng.Intn(30),
				FlipFlops: 6 + rng.Intn(5),
				Seed:      seed,
			}}
			if c, gerr := netlist.Generate(es.Spec); gerr == nil {
				es.Deltas = eco.RandomDeltas(rng, c, flowConfig().NumRings, 4+rng.Intn(5))
			}
			if vs := check("eco/scratch", CheckECO(es, flowConfig(), seed)); len(vs) > 0 {
				sh := shrinkECO(es, func(cand *ECOSpec) bool { return len(CheckECO(cand, flowConfig(), seed)) > 0 })
				record(vs, &Repro{ECO: sh})
			}
		}
	}
	return rep
}
