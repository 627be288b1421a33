package rotaryclk

import (
	"math"
	"strings"
	"testing"
)

// TestFacadeEndToEnd drives the whole library through the public facade the
// way examples/quickstart does.
func TestFacadeEndToEnd(t *testing.T) {
	c, err := Generate(GenSpec{Name: "facade", Cells: 300, FlipFlops: 40, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, Config{NumRings: 4, MaxIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.TapWL <= 0 || len(res.Assign.Taps) != 40 {
		t.Fatalf("unexpected result: %+v", res.Final)
	}
}

func TestFacadeManualCircuit(t *testing.T) {
	c := NewCircuit("manual")
	c.Die = Rect{Lo: Pt(0, 0), Hi: Pt(100, 100)}
	a := c.AddCell(&Cell{Name: "in", Kind: KindInput, Fixed: true})
	b := c.AddCell(&Cell{Name: "g"})
	c.AddNet("n", a.ID, b.ID)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.SignalWL() != 0 { // both at origin
		t.Errorf("SignalWL = %v", c.SignalWL())
	}
}

func TestFacadeBenchRoundTrip(t *testing.T) {
	c, err := Generate(GenSpec{Name: "rt", Cells: 250, FlipFlops: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteBench(&sb, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ParseBench("rt2", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats() != c2.Stats() {
		t.Errorf("round trip stats: %+v vs %+v", c.Stats(), c2.Stats())
	}
}

func TestFacadeTapSolver(t *testing.T) {
	p := DefaultParams()
	ring := &Ring{Center: Pt(500, 500), Side: 400, Dir: 1}
	tap, err := SolveTap(ring, p, Pt(200, 200), 333)
	if err != nil {
		t.Fatal(err)
	}
	d := math.Mod(tap.Delay-333, p.Period)
	if d < 0 {
		d += p.Period
	}
	if math.Min(d, p.Period-d) > 1e-6 {
		t.Errorf("tap delay %v does not realize 333 ps", tap.Delay)
	}
}

func TestFacadeArray(t *testing.T) {
	arr, err := NewArray(Rect{Lo: Pt(0, 0), Hi: Pt(2000, 2000)}, 2, 2, 0.5, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(arr.Rings) != 4 {
		t.Fatalf("rings = %d", len(arr.Rings))
	}
	if NetworkFlow == ILP || MinDelta == WeightedSum {
		t.Fatal("facade constants collide")
	}
}

func TestFacadeExtensions(t *testing.T) {
	c, err := Generate(GenSpec{Name: "ext", Cells: 250, FlipFlops: 30, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, Config{NumRings: 4, MaxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ffPos []Point
	for _, id := range res.FFCells {
		ffPos = append(ffPos, c.Cells[id].Pos)
	}
	// Clock-tree baselines.
	root := BuildClockTree(ffPos)
	if pl := TreeAvgSourceSinkPath(root); pl <= 0 {
		t.Errorf("tree PL = %v", pl)
	}
	if zs := BuildZeroSkewTree(ffPos); zs == nil || zs.Delay <= 0 {
		t.Error("zero-skew tree empty")
	}
	// Variation.
	st, err := RotarySkewVariation(DefaultParams(), res.Assign, []VarPair{{A: 0, B: 1}}, 1)
	if err != nil || st.Sigma <= 0 {
		t.Errorf("variation: %v %v", st, err)
	}
	// Local trees.
	lt, err := BuildLocalTrees(res.Array, res.Assign, ffPos, res.Schedule, LocalTreeOptions{})
	if err != nil || lt.Saved < 0 {
		t.Errorf("local trees: %+v %v", lt, err)
	}
	// Timing.
	sta, err := AnalyzeTiming(c, DefaultTimingModel())
	if err != nil || len(sta.Pairs) == 0 {
		t.Errorf("timing: %v", err)
	}
	// AutoRings.
	gen := func() (*Circuit, error) {
		return Generate(GenSpec{Name: "ext", Cells: 250, FlipFlops: 30, Seed: 6})
	}
	best, pts, err := AutoRings(gen, Config{MaxIters: 1}, []int{4, 9})
	if err != nil || len(pts) != 2 || (best != 4 && best != 9) {
		t.Errorf("AutoRings: best=%d pts=%d err=%v", best, len(pts), err)
	}
}

func TestFacadeAudit(t *testing.T) {
	c, err := Generate(GenSpec{Name: "audit", Cells: 250, FlipFlops: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{NumRings: 4, MaxIters: 1}
	res, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Audit(c, cfg, res); err != nil {
		t.Errorf("audit failed on fresh result: %v", err)
	}
}

// TestBenchFileEndToEnd drives the ISCAS89 drop-in path: generate a circuit,
// serialize to .bench, reparse, re-equip it with physical data, and run the
// full flow on the parsed copy.
func TestBenchFileEndToEnd(t *testing.T) {
	orig, err := Generate(GenSpec{Name: "e2e", Cells: 300, FlipFlops: 36, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteBench(&sb, orig); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseBench("e2e-parsed", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := SizePhysical(parsed, 0); err != nil {
		t.Fatal(err)
	}
	cfg := Config{NumRings: 4, MaxIters: 2}
	res, err := Run(parsed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Audit(parsed, cfg, res); err != nil {
		t.Errorf("audit failed on parsed-circuit flow: %v", err)
	}
	if res.Final.TapWL <= 0 {
		t.Errorf("empty result: %+v", res.Final)
	}
}
