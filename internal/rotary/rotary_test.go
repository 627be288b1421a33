package rotary

import (
	"math"
	"math/rand"
	"testing"

	"rotaryclk/internal/geom"
)

func testRing() *Ring {
	return &Ring{ID: 0, Center: geom.Pt(500, 500), Side: 400, Dir: 1, T0: 0}
}

func TestRingGeometry(t *testing.T) {
	r := testRing()
	if r.Perimeter() != 1600 {
		t.Fatalf("Perimeter = %v", r.Perimeter())
	}
	b := r.Bounds()
	if b.Lo != geom.Pt(300, 300) || b.Hi != geom.Pt(700, 700) {
		t.Fatalf("Bounds = %v", b)
	}
	// Travel ccw from lower-left.
	cases := []struct {
		s    float64
		want geom.Point
	}{
		{0, geom.Pt(300, 300)},
		{400, geom.Pt(700, 300)},
		{800, geom.Pt(700, 700)},
		{1200, geom.Pt(300, 700)},
		{1600, geom.Pt(300, 300)}, // wrap
		{200, geom.Pt(500, 300)},
		{-400, geom.Pt(300, 700)}, // negative wraps
	}
	for _, c := range cases {
		if got := r.PointAt(c.s); got.Manhattan(c.want) > 1e-9 {
			t.Errorf("PointAt(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestRingClockwise(t *testing.T) {
	r := testRing()
	r.Dir = -1
	if got := r.PointAt(400); got.Manhattan(geom.Pt(300, 700)) > 1e-9 {
		t.Errorf("cw PointAt(400) = %v, want upper-left corner", got)
	}
}

func TestDelayAndPhase(t *testing.T) {
	r := testRing()
	T := 1000.0
	if d := r.DelayAt(0, T); d != 0 {
		t.Errorf("DelayAt(0) = %v", d)
	}
	if d := r.DelayAt(400, T); math.Abs(d-250) > 1e-9 {
		t.Errorf("DelayAt(quarter) = %v, want 250", d)
	}
	if d := r.DelayAt(1600, T); math.Abs(d) > 1e-9 {
		t.Errorf("DelayAt(full loop) = %v, want 0", d)
	}
	if p := r.PhaseAt(800, T); math.Abs(p-180) > 1e-9 {
		t.Errorf("PhaseAt(half) = %v, want 180", p)
	}
	r.T0 = 900
	if d := r.DelayAt(800, T); math.Abs(d-400) > 1e-9 {
		t.Errorf("DelayAt with offset = %v, want 400", d)
	}
}

func TestNearest(t *testing.T) {
	r := testRing()
	// Point directly below the bottom segment.
	s, pt, d := r.Nearest(geom.Pt(500, 200))
	if math.Abs(d-100) > 1e-9 || pt.Manhattan(geom.Pt(500, 300)) > 1e-9 {
		t.Errorf("Nearest below = s %v pt %v d %v", s, pt, d)
	}
	// Interior point: distance to nearest side.
	_, _, d = r.Nearest(geom.Pt(500, 500))
	if math.Abs(d-200) > 1e-9 {
		t.Errorf("Nearest center dist = %v, want 200", d)
	}
	// On the ring itself.
	_, _, d = r.Nearest(geom.Pt(700, 500))
	if d > 1e-9 {
		t.Errorf("Nearest on-ring dist = %v", d)
	}
}

func TestSegments(t *testing.T) {
	r := testRing()
	T := 1000.0
	segs := r.Segments(T)
	if len(segs) != 8 {
		t.Fatalf("Segments = %d, want 8", len(segs))
	}
	nComp := 0
	for _, s := range segs {
		if s.Complement {
			nComp++
		}
	}
	if nComp != 4 {
		t.Errorf("complementary segments = %d, want 4", nComp)
	}
	// Complementary segment delay differs by T/2 at the same location.
	if math.Abs(segs[1].T0-segs[0].T0-T/2) > 1e-9 {
		t.Errorf("complement offset = %v", segs[1].T0-segs[0].T0)
	}
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultParams()
	bad.Period = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative period accepted")
	}
	bad.Period = 0
	if _, err := SolveTap(testRing(), bad, geom.Pt(0, 0), 100); err == nil {
		t.Error("SolveTap accepted a zero period")
	}
	bad = DefaultParams()
	bad.RWire = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero resistance accepted")
	}
}

func TestStubDelayMonotone(t *testing.T) {
	p := DefaultParams()
	prev := -1.0
	for l := 0.0; l <= 1000; l += 50 {
		d := p.StubDelay(l)
		if d <= prev {
			t.Fatalf("StubDelay not increasing at l=%v", l)
		}
		prev = d
	}
	if p.StubDelay(0) != 0 {
		t.Error("StubDelay(0) != 0")
	}
}

// TestInvertStubDelay: StubLength inverts StubDelay on stub lengths and on
// the local-tree branch lengths it also sizes.
func TestInvertStubDelay(t *testing.T) {
	p := DefaultParams()
	for _, l := range []float64{0, 10, 25, 123.4, 333, 800, 900} {
		target := p.StubDelay(l)
		got, ok := p.StubLength(target)
		if !ok || math.Abs(got-l) > 1e-6 {
			t.Errorf("StubLength(StubDelay(%v)) = %v, %v", l, got, ok)
		}
	}
	for _, target := range []float64{-1, -5} {
		if _, ok := p.StubLength(target); ok {
			t.Errorf("negative target %v inverted", target)
		}
	}
}

func TestQuadRoots(t *testing.T) {
	// (x-2)(x-5) = x^2 -7x + 10
	rs, n := quadRoots(1, -7, 10)
	if n != 2 {
		t.Fatalf("roots = %v", rs[:n])
	}
	lo, hi := math.Min(rs[0], rs[1]), math.Max(rs[0], rs[1])
	if math.Abs(lo-2) > 1e-9 || math.Abs(hi-5) > 1e-9 {
		t.Errorf("roots = %v", rs)
	}
	if rs, n := quadRoots(1, 0, 1); n != 0 {
		t.Errorf("complex roots returned %v", rs[:n])
	}
	if rs, n := quadRoots(0, 2, -4); n != 1 || math.Abs(rs[0]-2) > 1e-9 {
		t.Errorf("linear roots = %v", rs[:n])
	}
	if rs, n := quadRoots(0, 0, 1); n != 0 {
		t.Errorf("degenerate roots = %v", rs[:n])
	}
	// A double root is reported once.
	if rs, n := quadRoots(1, -4, 4); n != 1 || rs[0] != 2 {
		t.Errorf("double root = %v", rs[:n])
	}
}

func modDiff(a, b, T float64) float64 {
	d := math.Mod(a-b, T)
	if d < 0 {
		d += T
	}
	return math.Min(d, T-d)
}

func TestSolveTapRealizesTarget(t *testing.T) {
	r := testRing()
	p := DefaultParams()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		ff := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		tHat := rng.Float64() * p.Period
		tap, err := SolveTap(r, p, ff, tHat)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if modDiff(tap.Delay, tHat, p.Period) > 1e-6 {
			t.Fatalf("trial %d: realized %v vs target %v (mod %v)", trial, tap.Delay, tHat, p.Period)
		}
		// The stub cannot be shorter than the Manhattan distance to the ring.
		_, _, minD := r.Nearest(ff)
		if tap.WireLen < minD-1e-6 {
			t.Fatalf("trial %d: stub %v shorter than ring distance %v", trial, tap.WireLen, minD)
		}
		// The tap point must be on the loop.
		_, _, onRing := r.Nearest(tap.Point)
		if onRing > 1e-6 {
			t.Fatalf("trial %d: tap point %v not on ring (d=%v)", trial, tap.Point, onRing)
		}
	}
}

// TestSolveTapNearOptimal cross-checks the analytic solver against dense
// sampling of the ring: no sampled tap realizing the target should beat the
// solver's stub length by more than the sampling resolution.
func TestSolveTapNearOptimal(t *testing.T) {
	r := testRing()
	p := DefaultParams()
	rng := rand.New(rand.NewSource(23))
	const steps = 6400
	for trial := 0; trial < 25; trial++ {
		ff := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		tHat := rng.Float64() * p.Period
		tap, err := SolveTap(r, p, ff, tHat)
		if err != nil {
			t.Fatal(err)
		}
		bruteBest := math.Inf(1)
		for _, seg := range r.Segments(p.Period) {
			b := seg.Seg.Length()
			for i := 0; i <= steps; i++ {
				s := b * float64(i) / steps
				pt := seg.Seg.At(s / b)
				l := pt.Manhattan(ff)
				delay := seg.T0 + r.Rho(p.Period)*s + p.StubDelay(l)
				if modDiff(delay, tHat, p.Period) < 0.05 && l < bruteBest {
					bruteBest = l
				}
			}
		}
		if !math.IsInf(bruteBest, 1) && tap.WireLen > bruteBest+r.Side/steps*8+1 {
			t.Fatalf("trial %d: solver stub %v much worse than sampled %v", trial, tap.WireLen, bruteBest)
		}
	}
}

func TestSolveTapComplementaryUsed(t *testing.T) {
	// Across many random targets both polarities should get used: the
	// complementary line halves the worst-case on-ring distance.
	r := testRing()
	p := DefaultParams()
	rng := rand.New(rand.NewSource(31))
	comp := 0
	for i := 0; i < 100; i++ {
		ff := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		tap, err := SolveTap(r, p, ff, rng.Float64()*p.Period)
		if err != nil {
			t.Fatal(err)
		}
		if tap.Complement {
			comp++
		}
	}
	if comp == 0 || comp == 100 {
		t.Errorf("complementary taps = %d/100; both polarities should appear", comp)
	}
}

func TestSolveTapSnakingCase(t *testing.T) {
	// A flip-flop sitting exactly on the ring with a target just above the
	// local phase needs either a remote tap or a snaked stub; either way
	// the realized delay must match and the stub must be positive.
	r := testRing()
	p := DefaultParams()
	ff := geom.Pt(500, 300) // on the bottom segment, s=200, delay 125
	local := r.DelayAt(200, p.Period)
	tHat := local + 3 // 3 ps later than the local phase
	tap, err := SolveTap(r, p, ff, tHat)
	if err != nil {
		t.Fatal(err)
	}
	if modDiff(tap.Delay, tHat, p.Period) > 1e-6 {
		t.Fatalf("realized %v, want %v", tap.Delay, tHat)
	}
	if tap.WireLen <= 0 {
		t.Fatalf("stub %v must be positive", tap.WireLen)
	}
}

func TestTappingCurveShape(t *testing.T) {
	r := testRing()
	p := DefaultParams()
	ff := geom.Pt(500, 250) // below bottom segment, projects to s=200
	pts := TappingCurve(r, p, ff, 0, 100)
	if len(pts) != 101 {
		t.Fatalf("curve has %d points", len(pts))
	}
	// Stub length is V-shaped with minimum at the projection.
	minStub, minAt := math.Inf(1), -1
	for i, cp := range pts {
		if cp.Stub < minStub {
			minStub, minAt = cp.Stub, i
		}
	}
	if math.Abs(pts[minAt].X-200) > 5 {
		t.Errorf("stub minimum at x=%v, want 200", pts[minAt].X)
	}
	if math.Abs(minStub-50) > 1e-6 {
		t.Errorf("min stub = %v, want 50", minStub)
	}
	// Delay is strictly increasing on the right branch (rho dominates).
	for i := minAt + 1; i < len(pts); i++ {
		if pts[i].Delay <= pts[i-1].Delay {
			t.Fatalf("delay not increasing right of projection at i=%d", i)
		}
	}
	if TappingCurve(r, p, ff, 99, 10) != nil {
		t.Error("out-of-range segment index should return nil")
	}
}

func TestNewArray(t *testing.T) {
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(4000, 4000))
	a, err := NewArray(die, 4, 4, 0.6, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rings) != 16 {
		t.Fatalf("rings = %d", len(a.Rings))
	}
	// Checkerboard rotation.
	if a.Rings[0].Dir == a.Rings[1].Dir {
		t.Error("adjacent rings co-rotate")
	}
	if a.Rings[0].Dir != a.Rings[5].Dir {
		t.Error("diagonal rings should co-rotate")
	}
	// All rings inside the die.
	for _, r := range a.Rings {
		b := r.Bounds()
		if !die.Contains(b.Lo) || !die.Contains(b.Hi) {
			t.Errorf("ring %d bounds %v outside die", r.ID, b)
		}
	}
	// Ring side = fill * tile.
	if math.Abs(a.Rings[0].Side-600) > 1e-9 {
		t.Errorf("side = %v, want 600", a.Rings[0].Side)
	}
}

func TestNewArrayErrors(t *testing.T) {
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	if _, err := NewArray(die, 0, 2, 0.5, DefaultParams()); err == nil {
		t.Error("zero nx accepted")
	}
	if _, err := NewArray(die, 2, 2, 0, DefaultParams()); err == nil {
		t.Error("zero fill accepted")
	}
	bad := DefaultParams()
	bad.CWire = -1
	if _, err := NewArray(die, 2, 2, 0.5, bad); err == nil {
		t.Error("bad params accepted")
	}
}

func TestSquareArray(t *testing.T) {
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(4000, 4000))
	a, err := SquareArray(die, 13, 0.6, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rings) != 13 {
		t.Fatalf("rings = %d, want 13 (Fig. 1b)", len(a.Rings))
	}
	if _, err := SquareArray(die, 0, 0.6, DefaultParams()); err == nil {
		t.Error("zero rings accepted")
	}
}

func TestNearestRings(t *testing.T) {
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(4000, 4000))
	a, _ := NewArray(die, 4, 4, 0.6, DefaultParams())
	// A point in the lower-left tile must rank ring 0 first.
	ids := a.NearestRings(geom.Pt(500, 500), 3)
	if len(ids) != 3 || ids[0] != 0 {
		t.Errorf("NearestRings = %v", ids)
	}
	// k larger than the array clamps.
	if got := a.NearestRings(geom.Pt(0, 0), 99); len(got) != 16 {
		t.Errorf("clamped k = %d", len(got))
	}
}

func TestFOsc(t *testing.T) {
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(4000, 4000))
	a, _ := NewArray(die, 4, 4, 0.6, DefaultParams())
	r := a.Rings[0]
	f0 := a.FOsc(r, 0)
	f1 := a.FOsc(r, 500)
	if f1 >= f0 {
		t.Errorf("more load must slow the ring: %v >= %v", f1, f0)
	}
	if f0 < 0.2 || f0 > 10 {
		t.Errorf("unloaded f = %v GHz, out of plausible range", f0)
	}
}

func TestSolveTapDeterministic(t *testing.T) {
	r := testRing()
	p := DefaultParams()
	a, err := SolveTap(r, p, geom.Pt(111, 222), 456)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveTap(r, p, geom.Pt(111, 222), 456)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("tap solve not deterministic: %+v vs %+v", a, b)
	}
}

// TestSolveTapAllocationFree: a feasible tapping solve allocates nothing,
// so building the assignment's candidate matrix leaves no garbage. Targets
// span three periods, so the period-shifting loop runs too.
func TestSolveTapAllocationFree(t *testing.T) {
	r := testRing()
	p := DefaultParams()
	rng := rand.New(rand.NewSource(29))
	type query struct {
		ff   geom.Point
		tHat float64
	}
	qs := make([]query, 64)
	for i := range qs {
		qs[i] = query{geom.Pt(rng.Float64()*1000, rng.Float64()*1000), rng.Float64() * 3 * p.Period}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, q := range qs {
			if _, err := SolveTap(r, p, q.ff, q.tHat); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("SolveTap allocated %v times per %d queries, want 0", allocs, len(qs))
	}
}

// TestNearestRingsBruteForce cross-checks the k-nearest selection against a
// full sort.
func TestNearestRingsBruteForce(t *testing.T) {
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(4000, 4000))
	a, err := NewArray(die, 4, 4, 0.6, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 40; trial++ {
		p := geom.Pt(rng.Float64()*4000, rng.Float64()*4000)
		k := 1 + rng.Intn(6)
		got := a.NearestRings(p, k)
		if len(got) != k {
			t.Fatalf("k=%d returned %d", k, len(got))
		}
		// Brute force distances.
		type rd struct {
			id int
			d  float64
		}
		all := make([]rd, len(a.Rings))
		for i, r := range a.Rings {
			_, _, d := r.Nearest(p)
			all[i] = rd{i, d}
		}
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				if all[j].d < all[i].d || (all[j].d == all[i].d && all[j].id < all[i].id) {
					all[i], all[j] = all[j], all[i]
				}
			}
		}
		for i := 0; i < k; i++ {
			if got[i] != all[i].id {
				t.Fatalf("trial %d: NearestRings[%d] = %d, brute force %d", trial, i, got[i], all[i].id)
			}
		}
	}
}

// TestDelayMonotoneAlongTravel: clock delay increases linearly with
// arclength in travel direction (mod the wrap).
func TestDelayMonotoneAlongTravel(t *testing.T) {
	r := testRing()
	T := 1000.0
	prev := r.DelayAt(0, T)
	for s := 1.0; s < r.Perimeter(); s += 7 {
		d := r.DelayAt(s, T)
		if d <= prev && prev < T-1 { // allow the single wrap at the end
			t.Fatalf("delay not increasing at s=%v: %v -> %v", s, prev, d)
		}
		prev = d
	}
}

// TestTapDelayRecomputedFromGeometry re-derives each solved tap's delay from
// first principles -- the ring's phase map at the tap point plus the Elmore
// stub delay of equation (1) -- and checks it against the solver's report.
func TestTapDelayRecomputedFromGeometry(t *testing.T) {
	r := testRing()
	p := DefaultParams()
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 120; trial++ {
		ff := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		tap, err := SolveTap(r, p, ff, rng.Float64()*p.Period)
		if err != nil {
			t.Fatal(err)
		}
		s, _, onRing := r.Nearest(tap.Point)
		if onRing > 1e-6 {
			t.Fatalf("trial %d: tap point off ring by %v", trial, onRing)
		}
		base := r.DelayAt(s, p.Period)
		if tap.Complement {
			base += p.Period / 2
		}
		want := base + p.StubDelay(tap.WireLen)
		if modDiff(want, tap.Delay, p.Period) > 1e-6 {
			t.Fatalf("trial %d: recomputed %v vs reported %v", trial, want, tap.Delay)
		}
		// Non-snaked taps use the direct Manhattan stub.
		if !tap.Snaked && math.Abs(tap.WireLen-tap.Point.Manhattan(ff)) > 1e-6 {
			t.Fatalf("trial %d: direct stub %v != distance %v", trial, tap.WireLen, tap.Point.Manhattan(ff))
		}
	}
}
