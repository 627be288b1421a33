// Package geom provides the planar geometry primitives used throughout the
// rotary-clock placement flow: points, rectangles, and the Manhattan metric
// that all wirelength and tapping-cost computations are expressed in.
//
// All coordinates are in micrometers unless stated otherwise.
//
// Error discipline: functions whose preconditions depend on caller-supplied
// *data* (e.g. BoundingBox over a possibly-empty point set) return errors;
// the package never panics on bad input. This is the repo-wide convention —
// panics are reserved for internal invariant violations that indicate a bug
// in this package itself.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the placement plane, in micrometers.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Manhattan returns the L1 distance between p and q.
func (p Point) Manhattan(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// Euclid returns the L2 distance between p and q.
func (p Point) Euclid(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle with Lo as the lower-left corner and Hi
// as the upper-right corner. A Rect with Hi.X < Lo.X or Hi.Y < Lo.Y is empty.
type Rect struct {
	Lo, Hi Point
}

// NewRect returns the rectangle spanning the two corner points, normalizing
// the corner order.
func NewRect(a, b Point) Rect {
	return Rect{
		Lo: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Hi: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// W returns the rectangle width (zero for empty rectangles). W and H clamp
// with the builtin max, which gives math.Max's value on every input (±0 and
// ±Inf included; NaN for NaN) but compiles inline, so HalfPerimeter inlines
// too.
func (r Rect) W() float64 { return max(0, r.Hi.X-r.Lo.X) }

// H returns the rectangle height (zero for empty rectangles).
func (r Rect) H() float64 { return max(0, r.Hi.Y-r.Lo.Y) }

// Area returns the rectangle area.
func (r Rect) Area() float64 { return r.W() * r.H() }

// HalfPerimeter returns W + H, the HPWL contribution of a bounding box.
func (r Rect) HalfPerimeter() float64 { return r.W() + r.H() }

// Center returns the rectangle center.
func (r Rect) Center() Point {
	return Point{(r.Lo.X + r.Hi.X) / 2, (r.Lo.Y + r.Hi.Y) / 2}
}

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Lo.X && p.X <= r.Hi.X && p.Y >= r.Lo.Y && p.Y <= r.Hi.Y
}

// Clamp returns the point inside r closest to p (in any Lp metric).
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Lo.X), r.Hi.X),
		Y: math.Min(math.Max(p.Y, r.Lo.Y), r.Hi.Y),
	}
}

// Expand grows the rectangle by d on all four sides.
func (r Rect) Expand(d float64) Rect {
	return Rect{Point{r.Lo.X - d, r.Lo.Y - d}, Point{r.Hi.X + d, r.Hi.Y + d}}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%s - %s]", r.Lo, r.Hi)
}

// BoundingBox returns the smallest rectangle containing all points. An
// empty point set is invalid input and returns an error (there is no
// meaningful empty bounding box: the zero Rect contains the origin).
func BoundingBox(pts []Point) (Rect, error) {
	if len(pts) == 0 {
		return Rect{}, fmt.Errorf("geom: BoundingBox of empty point set")
	}
	r := Rect{pts[0], pts[0]}
	for _, p := range pts[1:] {
		r = r.Extend(p)
	}
	return r, nil
}

// Extend returns r grown just enough to contain p, the step BoundingBox
// takes per point.
func (r Rect) Extend(p Point) Rect {
	if p.X < r.Lo.X {
		r.Lo.X = p.X
	}
	if p.Y < r.Lo.Y {
		r.Lo.Y = p.Y
	}
	if p.X > r.Hi.X {
		r.Hi.X = p.X
	}
	if p.Y > r.Hi.Y {
		r.Hi.Y = p.Y
	}
	return r
}

// HPWL returns the half-perimeter wirelength of the point set, the standard
// net-length estimate used by placers. It returns 0 for fewer than 2 points.
func HPWL(pts []Point) float64 {
	if len(pts) < 2 {
		return 0
	}
	bb, _ := BoundingBox(pts) // non-empty by the guard above
	return bb.HalfPerimeter()
}

// Segment is a directed straight wire segment from A to B. Ring edges are
// axis-aligned segments, but Segment supports arbitrary orientation.
type Segment struct {
	A, B Point
}

// Length returns the Euclidean length of the segment.
func (s Segment) Length() float64 { return s.A.Euclid(s.B) }

// At returns the point at parameter u in [0,1] along the segment.
func (s Segment) At(u float64) Point {
	return Point{s.A.X + u*(s.B.X-s.A.X), s.A.Y + u*(s.B.Y-s.A.Y)}
}

// ClosestParam returns the parameter u in [0,1] of the point on s closest to
// p in the Euclidean metric.
func (s Segment) ClosestParam(p Point) float64 {
	dx, dy := s.B.X-s.A.X, s.B.Y-s.A.Y
	den := dx*dx + dy*dy
	if den == 0 {
		return 0
	}
	u := ((p.X-s.A.X)*dx + (p.Y-s.A.Y)*dy) / den
	return math.Min(1, math.Max(0, u))
}
