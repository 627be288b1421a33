package oracle

import (
	"fmt"
	"math"
	"math/rand"

	"rotaryclk/internal/core"
	"rotaryclk/internal/eco"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/rotary"
	"rotaryclk/internal/skew"
)

// Options tunes a campaign run.
type Options struct {
	// Seeds is the number of random instances (default 25). Seed0 is the
	// first seed (default 1); seed s generates instance s deterministically.
	Seeds int
	Seed0 int64
	// ReproDir receives minimized JSON repros of failing instances
	// (default "testdata/repros"). Created on first failure.
	ReproDir string
	// FullFlowEvery runs the expensive full-flow translation metamorphic
	// check on every k-th seed (default 10; negative disables).
	FullFlowEvery int
	// ECOEvery runs the ECO-vs-scratch differential check — a base flow run
	// plus a random delta sequence applied through both arms — on every
	// k-th seed (default 5; negative disables).
	ECOEvery int
	// MLEvery runs the multilevel-vs-flat placement check — a circuit big
	// enough to build a real V-cycle hierarchy, placed both ways and compared
	// after legalization — on every k-th seed (default 5; negative disables).
	MLEvery int
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// Report summarizes a campaign.
type Report struct {
	Seeds      int
	Checks     int         // individual oracle checks run
	Violations []Violation // every violation observed (pre-shrink)
	Repros     []string    // paths of written repro files
}

func (o *Options) normalize() {
	if o.Seeds <= 0 {
		o.Seeds = 25
	}
	if o.Seed0 == 0 {
		o.Seed0 = 1
	}
	if o.ReproDir == "" {
		o.ReproDir = "testdata/repros"
	}
	if o.FullFlowEvery == 0 {
		o.FullFlowEvery = 10
	}
	if o.ECOEvery == 0 {
		o.ECOEvery = 5
	}
	if o.MLEvery == 0 {
		o.MLEvery = 5
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
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

// flowSpec is the generated-circuit configuration of one full-flow
// translation check, serialized into its repro.
type FlowSpec struct {
	Spec  netlist.GenSpec
	Delta geom.Point
}

func flowConfig() core.Config {
	return core.Config{NumRings: 4, MaxIters: 2, Parallelism: 1}
}

// RunCampaign drives Seeds random instances through every oracle. Each
// violation is shrunk (while it still reproduces) and written as a JSON
// repro; the report aggregates everything observed.
func RunCampaign(o Options) (*Report, error) {
	o.normalize()
	rep := &Report{}
	var firstErr error
	record := func(vs []Violation, r *Repro) {
		rep.Violations = append(rep.Violations, vs...)
		if r == nil || len(vs) == 0 {
			return
		}
		r.Oracle = vs[0].Oracle
		r.Seed = vs[0].Seed
		r.Detail = vs[0].Detail
		path, err := WriteRepro(o.ReproDir, r)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			o.Log("repro write failed: %v", err)
			return
		}
		rep.Repros = append(rep.Repros, path)
		o.Log("violation: %s -> %s", vs[0].Error(), path)
	}
	check := func(vs []Violation) []Violation { rep.Checks++; return vs }

	for i := 0; i < o.Seeds; i++ {
		seed := o.Seed0 + int64(i)
		rng := rand.New(rand.NewSource(seed))
		rep.Seeds++

		ai := genAssign(rng)
		if vs := check(CheckMinCost(ai, seed)); len(vs) > 0 {
			sh := shrinkAssign(ai, func(c *AssignInstance) bool { return len(CheckMinCost(c, seed)) > 0 })
			record(vs, &Repro{Assign: sh})
		}
		if vs := check(CheckMinMaxCap(ai, seed)); len(vs) > 0 {
			sh := shrinkAssign(ai, func(c *AssignInstance) bool { return len(CheckMinMaxCap(c, seed)) > 0 })
			record(vs, &Repro{Assign: sh})
		}
		if vs := check(CheckScale(ai, seed)); len(vs) > 0 {
			sh := shrinkAssign(ai, func(c *AssignInstance) bool { return len(CheckScale(c, seed)) > 0 })
			record(vs, &Repro{Assign: sh})
		}
		perm := rng.Perm(len(ai.FFs))
		if vs := check(CheckPermute(ai, perm, seed)); len(vs) > 0 {
			sh := shrinkAssign(ai, func(c *AssignInstance) bool {
				rev := make([]int, len(c.FFs))
				for k := range rev {
					rev[k] = len(rev) - 1 - k
				}
				return len(CheckPermute(c, rev, seed)) > 0
			})
			record(vs, &Repro{Assign: sh})
		}
		if vs := check(CheckTighten(ai, seed)); len(vs) > 0 {
			sh := shrinkAssign(ai, func(c *AssignInstance) bool { return len(CheckTighten(c, seed)) > 0 })
			record(vs, &Repro{Assign: sh})
		}
		if vs := check(CheckAssignLP(ai, seed)); len(vs) > 0 {
			sh := shrinkAssign(ai, func(c *AssignInstance) bool { return len(CheckAssignLP(c, seed)) > 0 })
			record(vs, &Repro{Assign: sh})
		}
		if i%5 == 0 {
			// Large sparse arm: exercises the GUB simplex on candidate sets
			// far beyond the brute-force budget.
			al := genAssignLarge(rng)
			if vs := check(CheckAssignLP(al, seed)); len(vs) > 0 {
				sh := shrinkAssign(al, func(c *AssignInstance) bool { return len(CheckAssignLP(c, seed)) > 0 })
				record(vs, &Repro{Assign: sh})
			}
		}

		for t := 0; t < 2; t++ {
			ti := genTap(rng)
			if vs := check(CheckTap(ti, seed)); len(vs) > 0 {
				record(vs, &Repro{Tap: ti}) // a tap instance is already minimal
			}
		}

		si := genSkew(rng)
		if vs := check(CheckSkew(si, seed)); len(vs) > 0 {
			sh := shrinkSkew(si, func(c *SkewInstance) bool { return len(CheckSkew(c, seed)) > 0 })
			record(vs, &Repro{Skew: sh})
		}

		// The min-Delta instance draws from its own stream so the instances
		// of every other check stay what they were for this seed.
		if di := genMinDelta(rand.New(rand.NewSource(seed + 1<<32))); di != nil {
			if vs := check(CheckMinDelta(di, seed)); len(vs) > 0 {
				sh := shrinkSkew(di, func(c *SkewInstance) bool { return len(CheckMinDelta(c, seed)) > 0 })
				record(vs, &Repro{Skew: sh})
			}
		}

		pi := genPlace(rng)
		if vs := check(CheckPlace(pi, seed)); len(vs) > 0 {
			sh := shrinkPlace(pi, func(c *PlaceInstance) bool { return len(CheckPlace(c, seed)) > 0 })
			record(vs, &Repro{Place: sh})
		}

		if o.FullFlowEvery > 0 && i%o.FullFlowEvery == 0 {
			spec := netlist.GenSpec{
				Cells:     30 + rng.Intn(20),
				FlipFlops: 5 + rng.Intn(4),
				Seed:      seed,
			}
			delta := geom.Pt(1000+rng.Float64()*2000, -500-rng.Float64()*1000)
			if vs := check(CheckTranslate(spec, flowConfig(), delta, seed)); len(vs) > 0 {
				record(vs, &Repro{Flow: &FlowSpec{Spec: spec, Delta: delta}})
			}
			if vs := check(CheckTimingIdentity(spec, flowConfig(), seed)); len(vs) > 0 {
				record(vs, &Repro{Flow: &FlowSpec{Spec: spec}})
			}
		}

		if o.ECOEvery > 0 && i%o.ECOEvery == 0 {
			es := &ECOSpec{Spec: netlist.GenSpec{
				Cells:     40 + rng.Intn(30),
				FlipFlops: 6 + rng.Intn(5),
				Seed:      seed,
			}}
			if c, gerr := netlist.Generate(es.Spec); gerr == nil {
				es.Deltas = eco.RandomDeltas(rng, c, flowConfig().NumRings, 4+rng.Intn(5))
			}
			if vs := check(CheckECO(es, flowConfig(), seed)); len(vs) > 0 {
				sh := shrinkECO(es, func(cand *ECOSpec) bool { return len(CheckECO(cand, flowConfig(), seed)) > 0 })
				record(vs, &Repro{ECO: sh})
			}
		}

		if o.MLEvery > 0 && i%o.MLEvery == 0 {
			// Multilevel arm: large enough that the V-cycle actually coarsens
			// (CheckMultilevel lowers the coarsening floor to match). The spec
			// is the whole instance, so the repro reuses FlowSpec.
			spec := netlist.GenSpec{
				Cells:     600 + rng.Intn(400),
				FlipFlops: 60 + rng.Intn(40),
				Seed:      seed,
			}
			if vs := check(CheckMultilevel(spec, seed)); len(vs) > 0 {
				record(vs, &Repro{Flow: &FlowSpec{Spec: spec}})
			}
		}

		if (i+1)%25 == 0 {
			o.Log("seed %d/%d: %d checks, %d violations", i+1, o.Seeds, rep.Checks, len(rep.Violations))
		}
	}
	o.Log("campaign done: %d seeds, %d checks, %d violations, %d repros",
		rep.Seeds, rep.Checks, len(rep.Violations), len(rep.Repros))
	return rep, firstErr
}

// Summary renders a one-line human summary.
func (r *Report) Summary() string {
	return fmt.Sprintf("%d seeds, %d checks, %d violations, %d repros",
		r.Seeds, r.Checks, len(r.Violations), len(r.Repros))
}
