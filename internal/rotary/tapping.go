package rotary

import (
	"errors"
	"fmt"
	"math"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
)

// ErrNoTap reports that a ring has no tapping point realizing the requested
// delay target within the solver's stub and snaking limits. It is an
// expected per-candidate outcome during assignment (the flow tries other
// rings, or falls back to a nearest-point tap); callers classify it with
// errors.Is.
var ErrNoTap = errors.New("rotary: no tapping solution")

// Tap is the result of solving the flexible-tapping equation (1) for one
// flip-flop against one ring: the point on the ring to tap, the stub
// wirelength realizing the delay target, and the polarity of the tapped
// line.
type Tap struct {
	Ring       int        // ring ID
	Point      geom.Point // tapping point on the loop
	WireLen    float64    // stub wirelength (um); includes snaking detour
	Complement bool       // tapped the complementary line (opposite edge FF)
	Snaked     bool       // Case 4: wire detour was needed
	Periods    int        // k: number of whole periods absorbed (Case 1)
	Delay      float64    // realized clock delay at the flip-flop (ps)
}

// SolveTap finds, over all eight segments of the ring, the minimum-stub
// tapping point realizing clock-delay target tHat (ps, interpreted modulo
// the period) at flip-flop location ff. This is the Section III relaxation:
//
//	t_f(x) = t0 + rho*x + (1/2) r c l^2 + r l C_ff  =  tHat (mod T)
//
// Case 1 (target below the segment's reachable band) shifts the target by
// whole periods; Cases 2-3 solve the two-parabola equation directly; Case 4
// (target above the band) taps the segment end and snakes the stub.
func SolveTap(r *Ring, params Params, ff geom.Point, tHat float64) (Tap, error) {
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
		tap, ok := solveSegment(seg, rho, params, ff, tHat)
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

// NearestTap taps ring r at its point nearest ff with a direct stub, the
// nearest-point fallback tap: its delay is the ring's delay there plus the
// stub's, modulo the period. It reports false when the distance is not
// finite.
func NearestTap(r *Ring, params Params, ff geom.Point) (Tap, bool) {
	s, pt, dist := r.Nearest(ff)
	if math.IsNaN(dist) || math.IsInf(dist, 0) {
		return Tap{}, false
	}
	d := math.Mod(r.DelayAt(s, params.Period)+params.StubDelay(dist), params.Period)
	return Tap{Ring: r.ID, Point: pt, WireLen: dist, Delay: d}, true
}

// solveSegment solves equation (1) on a single segment. The segment is
// parameterized by distance s in [0, b] from Seg.A (the travel-direction
// start), so the on-ring delay at s is seg.T0 + rho*s.
func solveSegment(seg TapSegment, rho float64, params Params, ff geom.Point, tHat float64) (Tap, bool) {
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

// segmentRoots returns the tap positions s in [0,b] solving
// t0 + rho*s + StubDelay(|s-sFF|+d) = tau on both parabola branches: the
// first n entries of roots, at most two per branch.
func segmentRoots(t0, rho float64, params Params, sFF, d, b, tau float64) (roots [4]float64, n int) {
	rc := params.RWire * params.CWire
	rcf := params.RWire * params.CFF
	add := func(s float64) {
		if s >= -1e-9 && s <= b+1e-9 {
			roots[n] = math.Min(b, math.Max(0, s))
			n++
		}
	}
	// Right branch: s >= sFF, l = s - sFF + d, s = l + sFF - d.
	// 0.5 rc l^2 + (rcf + rho) l + (t0 + rho (sFF - d) - tau) = 0.
	ls, nl := quadRoots(0.5*rc, rcf+rho, t0+rho*(sFF-d)-tau)
	for _, l := range ls[:nl] {
		if l >= d-1e-9 {
			s := l + sFF - d
			if s >= sFF-1e-9 {
				add(s)
			}
		}
	}
	// Left branch: s <= sFF, l = sFF - s + d, s = sFF + d - l.
	// 0.5 rc l^2 + (rcf - rho) l + (t0 + rho (sFF + d) - tau) = 0.
	ls, nl = quadRoots(0.5*rc, rcf-rho, t0+rho*(sFF+d)-tau)
	for _, l := range ls[:nl] {
		if l >= d-1e-9 {
			s := sFF + d - l
			if s <= sFF+1e-9 {
				add(s)
			}
		}
	}
	return roots, n
}

// quadRoots returns the real roots of a x^2 + b x + c = 0 (degenerating to
// linear when a is tiny) as the first n entries of roots.
func quadRoots(a, b, c float64) (roots [2]float64, n int) {
	if math.Abs(a) < 1e-18 {
		if math.Abs(b) < 1e-18 {
			return roots, 0
		}
		roots[0] = -c / b
		return roots, 1
	}
	disc := b*b - 4*a*c
	if disc < 0 {
		return roots, 0
	}
	sq := math.Sqrt(disc)
	// Numerically stable form.
	var q float64
	if b >= 0 {
		q = -0.5 * (b + sq)
	} else {
		q = -0.5 * (b - sq)
	}
	roots[0] = q / a
	if q != 0 {
		roots[1] = c / q
	}
	if roots[0] == roots[1] {
		return roots, 1
	}
	return roots, 2
}

// StubLength inverts StubDelay: it returns the length l >= 0 of a stub
// whose Elmore delay into a flip-flop clock pin is target, and false for a
// negative target. The root comes from quadRoots' cancellation-free form.
func (p Params) StubLength(target float64) (float64, bool) {
	if target < 0 {
		return 0, false
	}
	rc := p.RWire * p.CWire
	rcf := p.RWire * p.CFF
	ls, n := quadRoots(0.5*rc, rcf, -target)
	for _, l := range ls[:n] {
		if l >= 0 {
			return l, true
		}
	}
	return 0, false
}

// CurvePoint is one sample of the t_f(x) tapping-delay curve of Fig. 2.
type CurvePoint struct {
	X     float64 // tap position along the segment (um)
	Delay float64 // realized delay at the flip-flop (ps)
	Stub  float64 // stub length (um)
}

// TappingCurve samples the two-parabola delay curve t_f(x) of Fig. 2 for a
// flip-flop at ff against one segment of the ring, with n+1 samples. It is
// the data behind the paper's Fig. 2 illustration.
func TappingCurve(r *Ring, params Params, ff geom.Point, segIndex, n int) []CurvePoint {
	segs := r.Segments(params.Period)
	if segIndex < 0 || segIndex >= len(segs) {
		return nil
	}
	seg := segs[segIndex]
	b := seg.Seg.Length()
	rho := r.Rho(params.Period)
	ux := (seg.Seg.B.X - seg.Seg.A.X) / b
	uy := (seg.Seg.B.Y - seg.Seg.A.Y) / b
	relX, relY := ff.X-seg.Seg.A.X, ff.Y-seg.Seg.A.Y
	sFF := relX*ux + relY*uy
	d := math.Abs(relX*(-uy) + relY*ux)
	pts := make([]CurvePoint, 0, n+1)
	for i := 0; i <= n; i++ {
		s := b * float64(i) / float64(n)
		l := math.Abs(s-sFF) + d
		pts = append(pts, CurvePoint{
			X:     s,
			Delay: seg.T0 + rho*s + params.StubDelay(l),
			Stub:  l,
		})
	}
	return pts
}
