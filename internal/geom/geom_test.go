package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestManhattan(t *testing.T) {
	if d := Pt(0, 0).Manhattan(Pt(3, 4)); !almostEq(d, 7) {
		t.Errorf("Manhattan = %v, want 7", d)
	}
	if d := Pt(-1, -1).Manhattan(Pt(-1, -1)); d != 0 {
		t.Errorf("Manhattan self = %v", d)
	}
}

func TestEuclid(t *testing.T) {
	if d := Pt(0, 0).Euclid(Pt(3, 4)); !almostEq(d, 5) {
		t.Errorf("Euclid = %v, want 5", d)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Pt(4, 5), Pt(1, 2)) // corners given out of order
	if r.Lo != Pt(1, 2) || r.Hi != Pt(4, 5) {
		t.Fatalf("NewRect did not normalize: %v", r)
	}
	if !almostEq(r.W(), 3) || !almostEq(r.H(), 3) {
		t.Errorf("W/H = %v/%v", r.W(), r.H())
	}
	if !almostEq(r.Area(), 9) {
		t.Errorf("Area = %v", r.Area())
	}
	if !almostEq(r.HalfPerimeter(), 6) {
		t.Errorf("HalfPerimeter = %v", r.HalfPerimeter())
	}
	if r.Center() != Pt(2.5, 3.5) {
		t.Errorf("Center = %v", r.Center())
	}
}

// TestRectWidthMatchesMathMax: W and H clamp as math.Max(0, d) does, bit
// for bit on signed zeros, infinities and ordinary spans, and NaN where it
// gives NaN (NaN payloads may differ).
func TestRectWidthMatchesMathMax(t *testing.T) {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	negZero := math.Copysign(0, -1)
	vals := []float64{0, negZero, 1, -1, 3.5, -2.25, 1e-300, -1e-300, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, lo := range vals {
		for _, hi := range vals {
			r := Rect{Lo: Pt(lo, lo), Hi: Pt(hi, hi)}
			want := math.Max(0, hi-lo)
			if !same(r.W(), want) || !same(r.H(), want) {
				t.Errorf("W/H of [%v, %v] = %v/%v, math.Max gives %v", lo, hi, r.W(), r.H(), want)
			}
		}
	}
}

func TestRectContainsClamp(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(10, 10))
	cases := []struct {
		p     Point
		in    bool
		clamp Point
	}{
		{Pt(5, 5), true, Pt(5, 5)},
		{Pt(0, 0), true, Pt(0, 0)},
		{Pt(-3, 5), false, Pt(0, 5)},
		{Pt(12, 15), false, Pt(10, 10)},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.in {
			t.Errorf("Contains(%v) = %v", c.p, got)
		}
		if got := r.Clamp(c.p); got != c.clamp {
			t.Errorf("Clamp(%v) = %v, want %v", c.p, got, c.clamp)
		}
	}
}

func TestBoundingBoxAndHPWL(t *testing.T) {
	pts := []Point{Pt(1, 1), Pt(4, 0), Pt(2, 6)}
	bb, err := BoundingBox(pts)
	if err != nil {
		t.Fatal(err)
	}
	if bb.Lo != Pt(1, 0) || bb.Hi != Pt(4, 6) {
		t.Errorf("BoundingBox = %v", bb)
	}
	if got := HPWL(pts); !almostEq(got, 9) {
		t.Errorf("HPWL = %v, want 9", got)
	}
	if got := HPWL(pts[:1]); got != 0 {
		t.Errorf("HPWL single point = %v", got)
	}
}

func TestBoundingBoxEmptyIsError(t *testing.T) {
	if _, err := BoundingBox(nil); err == nil {
		t.Fatal("expected error for empty point set")
	}
}

func TestSegment(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(10, 0)}
	if !almostEq(s.Length(), 10) {
		t.Errorf("Length = %v", s.Length())
	}
	if got := s.At(0.3); got != Pt(3, 0) {
		t.Errorf("At = %v", got)
	}
	if u := s.ClosestParam(Pt(4, 7)); !almostEq(u, 0.4) {
		t.Errorf("ClosestParam = %v", u)
	}
	if u := s.ClosestParam(Pt(-5, 1)); u != 0 {
		t.Errorf("ClosestParam clamped low = %v", u)
	}
	if u := s.ClosestParam(Pt(50, 1)); u != 1 {
		t.Errorf("ClosestParam clamped high = %v", u)
	}
	deg := Segment{Pt(2, 2), Pt(2, 2)}
	if u := deg.ClosestParam(Pt(9, 9)); u != 0 {
		t.Errorf("degenerate ClosestParam = %v", u)
	}
}

// Property: Manhattan distance is a metric (symmetry + triangle inequality)
// and Clamp always lands inside the rectangle at minimal L1 distance among
// the corners/projections.
func TestManhattanMetricProperties(t *testing.T) {
	clamp := func(v float64) float64 {
		if math.IsNaN(v) {
			return 0
		}
		return math.Mod(v, 1e6)
	}
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Pt(clamp(ax), clamp(ay))
		b := Pt(clamp(bx), clamp(by))
		c := Pt(clamp(cx), clamp(cy))
		sym := almostEq(a.Manhattan(b), b.Manhattan(a))
		tri := a.Manhattan(c) <= a.Manhattan(b)+b.Manhattan(c)+1e-9
		return sym && tri
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestClampProperty(t *testing.T) {
	r := NewRect(Pt(-5, -5), Pt(5, 5))
	f := func(x, y float64) bool {
		if math.IsNaN(x+y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		q := r.Clamp(Pt(x, y))
		if !r.Contains(q) {
			return false
		}
		// Clamp must not move points already inside.
		if r.Contains(Pt(x, y)) && q != Pt(x, y) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
