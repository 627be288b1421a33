package rotary

// The bound-pruned SolveTap against its former all-segments loop, kept
// verbatim below as refSolveTap and refSolveSegment: every Tap field must
// be equal, floats to the bit, and every error of the same class.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
)

func refSolveTap(r *Ring, params Params, ff geom.Point, tHat float64) (Tap, error) {
	if err := faultinject.Hook(faultinject.SiteRotarySolveTap); err != nil {
		return Tap{}, err
	}
	if err := params.Validate(); err != nil {
		return Tap{}, err
	}
	// Non-finite queries have no answer, and NaN in particular would defeat
	// the period-shifting loop's termination test below; reject them here.
	if math.IsNaN(ff.X+ff.Y+tHat) || math.IsInf(ff.X, 0) || math.IsInf(ff.Y, 0) || math.IsInf(tHat, 0) {
		return Tap{}, fmt.Errorf("rotary: non-finite tapping query (ff %v, target %v)", ff, tHat)
	}
	if r.Side <= 0 || math.IsNaN(r.Side) || math.IsInf(r.Side, 0) {
		return Tap{}, fmt.Errorf("rotary: ring %d has invalid side %v", r.ID, r.Side)
	}
	T := params.Period
	rho := r.Rho(T)
	best := Tap{WireLen: math.Inf(1)}
	for _, seg := range r.Segments(T) {
		tap, ok := refSolveSegment(seg, rho, params, ff, tHat)
		if ok && tap.WireLen < best.WireLen {
			tap.Ring = r.ID
			best = tap
		}
	}
	if math.IsInf(best.WireLen, 1) {
		return Tap{}, fmt.Errorf("ring %d, target %v: %w", r.ID, tHat, ErrNoTap)
	}
	return best, nil
}

func refSolveSegment(seg TapSegment, rho float64, params Params, ff geom.Point, tHat float64) (Tap, bool) {
	b := seg.Seg.Length()
	if b <= 0 {
		return Tap{}, false
	}
	// Decompose the flip-flop position into the coordinate along the
	// segment axis (sFF, relative to Seg.A, may fall outside [0,b]) and the
	// perpendicular offset d, so that the Manhattan stub length at tap
	// position s is l(s) = |s - sFF| + d.
	ux := (seg.Seg.B.X - seg.Seg.A.X) / b
	uy := (seg.Seg.B.Y - seg.Seg.A.Y) / b
	relX, relY := ff.X-seg.Seg.A.X, ff.Y-seg.Seg.A.Y
	sFF := relX*ux + relY*uy
	d := math.Abs(relX*(-uy) + relY*ux)

	T := params.Period
	f := func(s float64) float64 {
		return seg.T0 + rho*s + params.StubDelay(math.Abs(s-sFF)+d)
	}

	// Band of reachable delays on this segment: f is increasing on the
	// right branch (s >= sFF); on the left branch it may dip where
	// rho = dStubDelay/dl. Candidate extremes: endpoints, the projection,
	// and the left-branch stationary point.
	cands := [4]float64{0, b}
	nc := 2
	if sFF > 0 && sFF < b {
		cands[nc] = sFF
		nc++
	}
	// Left branch stationary point: rho - q'(l) = 0 with l = sFF - s + d.
	lStar := (rho/params.RWire - params.CFF) / params.CWire
	if lStar > d {
		if s := sFF + d - lStar; s > 0 && s < math.Min(b, sFF) {
			cands[nc] = s
			nc++
		}
	}
	minF, maxF := math.Inf(1), math.Inf(-1)
	for _, s := range cands[:nc] {
		v := f(s)
		minF = math.Min(minF, v)
		maxF = math.Max(maxF, v)
	}
	if math.IsNaN(minF) || math.IsInf(minF, 0) || math.IsNaN(maxF) || math.IsInf(maxF, 0) {
		return Tap{}, false // degenerate geometry; no band to search
	}

	// Case 1: shift the target up by whole periods until it reaches the
	// band (clock phase is unchanged mod T). The band spans a handful of
	// periods on any physical ring; maxTapPeriods only guards the loop
	// against pathological geometry (an enormous band would otherwise take
	// (maxF-minF)/T iterations).
	const maxTapPeriods = 10_000
	k := int(math.Ceil((minF - tHat) / T))
	best := Tap{WireLen: math.Inf(1)}
	for iter := 0; iter < maxTapPeriods; iter, k = iter+1, k+1 {
		tau := tHat + float64(k)*T
		if tau > maxF+1e-9 {
			break
		}
		// Cases 2-3: direct solutions on the two parabola branches.
		roots, nr := segmentRoots(seg.T0, rho, params, sFF, d, b, tau)
		for _, root := range roots[:nr] {
			l := math.Abs(root-sFF) + d
			if l < best.WireLen {
				best = Tap{
					Point:      seg.Seg.At(root / b),
					WireLen:    l,
					Complement: seg.Complement,
					Periods:    k,
					Delay:      f(root),
				}
			}
		}
	}
	if !math.IsInf(best.WireLen, 1) {
		return best, true
	}

	// Case 4: target above the reachable band. Tap the segment end (the
	// highest on-ring delay) and snake the stub until the Elmore delay of
	// the longer wire makes up the difference.
	kSnake := int(math.Ceil((maxF - tHat) / T))
	if tHat+float64(kSnake)*T < maxF {
		kSnake++
	}
	endDelay := seg.T0 + rho*b
	direct := math.Abs(b-sFF) + d
	for tries := 0; tries < 4; tries++ {
		tau := tHat + float64(kSnake+tries)*T
		need := tau - endDelay
		l, ok := params.StubLength(need)
		if ok && l >= direct-1e-9 {
			return Tap{
				Point:      seg.Seg.B,
				WireLen:    l,
				Complement: seg.Complement,
				Snaked:     true,
				Periods:    kSnake + tries,
				Delay:      endDelay + params.StubDelay(l),
			}, true
		}
	}
	return Tap{}, false
}

// errClass names the kind of a tapping error: none, no solution, or
// rejected input.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrNoTap):
		return "no-tap"
	}
	return "invalid"
}

// sameTap reports whether two taps agree in every field, floats to the bit.
func sameTap(a, b Tap) bool {
	bits := math.Float64bits
	return a.Ring == b.Ring && bits(a.Point.X) == bits(b.Point.X) && bits(a.Point.Y) == bits(b.Point.Y) &&
		bits(a.WireLen) == bits(b.WireLen) && a.Complement == b.Complement && a.Snaked == b.Snaked &&
		a.Periods == b.Periods && bits(a.Delay) == bits(b.Delay)
}

// tapQuery draws one random tapping query. Rings are 200-600 um with
// integral centres and corner delays, so symmetric positions tie exactly;
// flip-flops are far away, on an axis or diagonal of the ring, at its
// centre, on a side or corner, or inside it; targets are uniform, whole
// picoseconds, or the exact delay at an end, projection or interior point
// of a segment's band, shifted by whole periods and nudged by an ulp.
func tapQuery(rng *rand.Rand) (*Ring, Params, geom.Point, float64) {
	p := DefaultParams()
	p.Period = []float64{1000, 1000, 500, 2000}[rng.Intn(4)]
	T := p.Period
	r := &Ring{
		ID:     rng.Intn(64),
		Center: geom.Pt(float64(rng.Intn(4000)), float64(rng.Intn(4000))),
		Side:   float64(200 + 2*rng.Intn(201)),
		Dir:    1 - 2*rng.Intn(2),
		T0:     float64(rng.Intn(int(T))),
	}
	h := r.Side / 2
	cx, cy := r.Center.X, r.Center.Y
	sign := func() float64 { return float64(1 - 2*rng.Intn(2)) }
	away := func() float64 { return sign() * (0.5 + 9.5*rng.Float64()) * r.Side }
	var ff geom.Point
	switch rng.Intn(9) {
	case 0, 1:
		ff = geom.Pt(cx+away(), cy+away())
	case 2: // on an axis of the ring: opposite sides tie
		if rng.Intn(2) == 0 {
			ff = geom.Pt(cx, cy+away())
		} else {
			ff = geom.Pt(cx+away(), cy)
		}
	case 3: // on a diagonal: two adjacent sides tie
		a := away()
		ff = geom.Pt(cx+a, cy+sign()*a)
	case 4: // the centre: all four sides tie
		ff = r.Center
	case 5: // on a side
		u := math.Round((2*rng.Float64() - 1) * h)
		if rng.Intn(2) == 0 {
			ff = geom.Pt(cx+sign()*h, cy+u)
		} else {
			ff = geom.Pt(cx+u, cy+sign()*h)
		}
	case 6: // a corner
		ff = geom.Pt(cx+sign()*h, cy+sign()*h)
	case 7: // inside
		ff = geom.Pt(cx+(2*rng.Float64()-1)*h, cy+(2*rng.Float64()-1)*h)
	default: // whole micrometres near the ring
		ff = geom.Pt(math.Round(cx+(2*rng.Float64()-1)*3*r.Side), math.Round(cy+(2*rng.Float64()-1)*3*r.Side))
	}
	var tHat float64
	switch rng.Intn(4) {
	case 0:
		tHat = (4*rng.Float64() - 1) * T
	case 1:
		tHat = float64(rng.Intn(int(3 * T)))
	default: // a band edge or interior point of one segment
		seg := r.Segments(T)[rng.Intn(8)]
		fr := newFrame(seg.Seg, ff)
		s := []float64{0, fr.b, math.Min(fr.b, math.Max(0, fr.sFF)), rng.Float64() * fr.b}[rng.Intn(4)]
		tHat = seg.T0 + r.Rho(T)*s + p.StubDelay(math.Abs(s-fr.sFF)+fr.d) + float64(rng.Intn(3)-1)*T
		switch rng.Intn(3) {
		case 1:
			tHat = math.Nextafter(tHat, math.Inf(1))
		case 2:
			tHat = math.Nextafter(tHat, math.Inf(-1))
		}
	}
	return r, p, ff, tHat
}

// TestSolveTapMatchesReference runs 1,000,000 random queries (50,000 under
// -short) through SolveTap and the verbatim former loop, then a set of
// degenerate ones. Every answer must agree; the test also requires that
// exact ties between segments occurred and reports how many segments the
// pruned solve visited per query.
func TestSolveTapMatchesReference(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 50_000
	}
	rng := rand.New(rand.NewSource(46))
	check := func(i int, r *Ring, p Params, ff geom.Point, tHat float64) int {
		want, werr := refSolveTap(r, p, ff, tHat)
		got, segs, err := SolveTapCounted(r, p, ff, tHat)
		if errClass(err) != errClass(werr) || !sameTap(got, want) {
			t.Fatalf("query %d (%v, ff %v, target %v, T %v): got %+v, %v; want %+v, %v", i, r, ff, tHat, p.Period, got, err, want, werr)
		}
		if segs < 0 || segs > 8 {
			t.Fatalf("query %d solved %d segments", i, segs)
		}
		return segs
	}
	solved, ties := 0, 0
	for i := 0; i < n; i++ {
		r, p, ff, tHat := tapQuery(rng)
		solved += check(i, r, p, ff, tHat)
		if i%16 == 0 && tiedSegments(r, p, ff, tHat) {
			ties++
		}
	}
	t.Logf("%d queries: %.3f of 8 segments solved per query; %d of %d sampled queries had tied shortest stubs", n, float64(solved)/float64(n), ties, (n+15)/16)
	if ties == 0 {
		t.Error("no query had two segments tie for the shortest stub")
	}
	p := DefaultParams()
	degenerate := []struct {
		r    *Ring
		ff   geom.Point
		tHat float64
	}{
		{&Ring{Side: 1e-300, Center: geom.Pt(5, 5)}, geom.Pt(5, 5), 100},
		{&Ring{Side: 400, Center: geom.Pt(-1e308, 0)}, geom.Pt(1.5e308, 0), 100},
		{&Ring{Side: 1e308, Center: geom.Pt(0, 0)}, geom.Pt(1e308, 1e308), 100},
		{&Ring{Side: 400, Center: geom.Pt(math.NaN(), 0)}, geom.Pt(0, 0), 100},
		{&Ring{Side: 0, Center: geom.Pt(0, 0)}, geom.Pt(0, 0), 100},
		{&Ring{Side: 400}, geom.Pt(math.NaN(), 0), 100},
		{&Ring{Side: 400}, geom.Pt(0, 0), math.Inf(1)},
		{&Ring{Side: 400}, geom.Pt(0, 0), 1e300},
		{&Ring{Side: 400}, geom.Pt(1e6, -1e6), -1e9},
	}
	for i, q := range degenerate {
		check(n+i, q.r, p, q.ff, q.tHat)
	}
	bad := p
	bad.Period = 0
	check(-1, testRing(), bad, geom.Pt(1, 1), 100)
}

// tiedSegments reports whether two segments of r solve the query with
// equally short stubs, the shortest of all.
func tiedSegments(r *Ring, p Params, ff geom.Point, tHat float64) bool {
	best, count := math.Inf(1), 0
	for _, seg := range r.Segments(p.Period) {
		tap, ok := solveSegment(seg, newFrame(seg.Seg, ff), r.Rho(p.Period), p, tHat)
		switch {
		case !ok || tap.WireLen > best:
		case tap.WireLen < best:
			best, count = tap.WireLen, 1
		default:
			count++
		}
	}
	return count > 1
}
