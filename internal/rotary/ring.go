package rotary

import (
	"fmt"
	"math"

	"rotaryclk/internal/geom"
)

// Ring is one square rotary clock ring: a differential transmission-line
// pair drawn as a square loop. The traveling wave makes one trip around the
// loop per clock period, so clock delay grows linearly with arclength in the
// travel direction; the second line of the differential pair carries the
// complementary phase (offset by T/2) at the same physical location.
type Ring struct {
	ID     int
	Center geom.Point
	Side   float64 // side length of the square loop, um
	Dir    int     // +1 counterclockwise, -1 clockwise
	T0     float64 // clock delay (ps) at the travel-start corner, mod Period
}

// Perimeter returns the loop length.
func (r *Ring) Perimeter() float64 { return 4 * r.Side }

// Rho returns the delay per unit length (ps/um) for period T: the wave
// covers the full perimeter in exactly one period.
func (r *Ring) Rho(T float64) float64 { return T / r.Perimeter() }

// Bounds returns the ring's bounding square.
func (r *Ring) Bounds() geom.Rect {
	h := r.Side / 2
	return geom.NewRect(
		geom.Pt(r.Center.X-h, r.Center.Y-h),
		geom.Pt(r.Center.X+h, r.Center.Y+h),
	)
}

// corners returns the loop corners in travel order, starting at the
// lower-left corner. Dir=+1 walks counterclockwise, Dir=-1 clockwise.
func (r *Ring) corners() [4]geom.Point {
	h := r.Side / 2
	ll := geom.Pt(r.Center.X-h, r.Center.Y-h)
	lr := geom.Pt(r.Center.X+h, r.Center.Y-h)
	ur := geom.Pt(r.Center.X+h, r.Center.Y+h)
	ul := geom.Pt(r.Center.X-h, r.Center.Y+h)
	if r.Dir >= 0 {
		return [4]geom.Point{ll, lr, ur, ul}
	}
	return [4]geom.Point{ll, ul, ur, lr}
}

// PointAt returns the point at arclength s (um) along the loop in travel
// direction, wrapping modulo the perimeter.
func (r *Ring) PointAt(s float64) geom.Point {
	p := r.Perimeter()
	s = math.Mod(s, p)
	if s < 0 {
		s += p
	}
	c := r.corners()
	seg := int(s / r.Side)
	if seg > 3 {
		seg = 3
	}
	a, b := c[seg], c[(seg+1)%4]
	u := (s - float64(seg)*r.Side) / r.Side
	return geom.Segment{A: a, B: b}.At(u)
}

// DelayAt returns the clock delay (ps) at arclength s, in [0, T).
func (r *Ring) DelayAt(s float64, T float64) float64 {
	d := math.Mod(r.T0+r.Rho(T)*s, T)
	if d < 0 {
		d += T
	}
	return d
}

// PhaseAt returns the clock phase in degrees [0, 360) at arclength s.
func (r *Ring) PhaseAt(s float64, T float64) float64 {
	return r.DelayAt(s, T) / T * 360
}

// Nearest returns the arclength, point and Manhattan distance of the loop
// point closest to p. For an axis-aligned square loop the Manhattan-nearest
// and Euclid-nearest points coincide.
func (r *Ring) Nearest(p geom.Point) (s float64, pt geom.Point, dist float64) {
	c := r.corners()
	dist = math.Inf(1)
	for i := 0; i < 4; i++ {
		seg := geom.Segment{A: c[i], B: c[(i+1)%4]}
		u := seg.ClosestParam(p)
		q := seg.At(u)
		if d := p.Manhattan(q); d < dist {
			dist = d
			pt = q
			s = float64(i)*r.Side + u*r.Side
		}
	}
	return s, pt, dist
}

// TapSegment is one of the eight tappable segments of a ring: the four
// sides of the outer line plus the four sides of the inner (complementary)
// line. Each is parameterized by distance from its travel-direction start.
type TapSegment struct {
	Seg        geom.Segment
	T0         float64 // delay at Seg.A (includes T/2 for complementary segs)
	Complement bool    // true for the inner line (opposite clock polarity)
}

// Segments returns the eight tappable segments (paper Fig. 2: four inside
// plus four outside segments). The inner line is co-located with the outer
// one (the differential pair runs together); it differs only in polarity.
func (r *Ring) Segments(T float64) [8]TapSegment {
	c := r.corners()
	rho := r.Rho(T)
	var segs [8]TapSegment
	for i := 0; i < 4; i++ {
		s := geom.Segment{A: c[i], B: c[(i+1)%4]}
		t0 := r.T0 + rho*float64(i)*r.Side
		segs[2*i] = TapSegment{Seg: s, T0: t0, Complement: false}
		segs[2*i+1] = TapSegment{Seg: s, T0: t0 + T/2, Complement: true}
	}
	return segs
}

func (r *Ring) String() string {
	return fmt.Sprintf("ring %d @%s side %.1f dir %+d", r.ID, r.Center, r.Side, r.Dir)
}

// Array is a grid of phase-locked rotary rings covering the die, generated
// as in Wood et al. Adjacent rings counter-rotate (checkerboard), which is
// what lets the physical array phase-lock at the junction points.
type Array struct {
	Rings  []*Ring
	Params Params
	NX, NY int
}

// NewArray tiles die with nx*ny rings. fill in (0,1] is the fraction of
// each tile's span used by the ring (the rest is routing margin).
func NewArray(die geom.Rect, nx, ny int, fill float64, params Params) (*Array, error) {
	if nx <= 0 || ny <= 0 {
		return nil, fmt.Errorf("rotary: array dimensions %dx%d invalid", nx, ny)
	}
	if fill <= 0 || fill > 1 {
		return nil, fmt.Errorf("rotary: fill %v out of (0,1]", fill)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	tw, th := die.W()/float64(nx), die.H()/float64(ny)
	side := fill * math.Min(tw, th)
	if side <= 0 {
		return nil, fmt.Errorf("rotary: die %v too small for %dx%d rings", die, nx, ny)
	}
	a := &Array{Params: params, NX: nx, NY: ny}
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			dir := 1
			if (ix+iy)%2 == 1 {
				dir = -1
			}
			a.Rings = append(a.Rings, &Ring{
				ID: len(a.Rings),
				Center: geom.Pt(
					die.Lo.X+(float64(ix)+0.5)*tw,
					die.Lo.Y+(float64(iy)+0.5)*th,
				),
				Side: side,
				Dir:  dir,
			})
		}
	}
	return a, nil
}

// SquareArray tiles die with the smallest n x n grid holding at least
// numRings rings, then truncates to exactly numRings (row-major), matching
// the per-circuit ring counts of the paper's Table II.
func SquareArray(die geom.Rect, numRings int, fill float64, params Params) (*Array, error) {
	if numRings <= 0 {
		return nil, fmt.Errorf("rotary: numRings %d invalid", numRings)
	}
	n := int(math.Ceil(math.Sqrt(float64(numRings))))
	a, err := NewArray(die, n, n, fill, params)
	if err != nil {
		return nil, err
	}
	a.Rings = a.Rings[:numRings]
	return a, nil
}

// NearestRings returns the indices of the k rings whose loops are nearest to
// p (by Manhattan distance to the loop), closest first.
func (a *Array) NearestRings(p geom.Point, k int) []int {
	type rd struct {
		id int
		d  float64
	}
	ds := make([]rd, len(a.Rings))
	for i, r := range a.Rings {
		_, _, d := r.Nearest(p)
		ds[i] = rd{i, d}
	}
	// Insertion-select the k smallest (k is small).
	if k > len(ds) {
		k = len(ds)
	}
	for i := 0; i < k; i++ {
		m := i
		for j := i + 1; j < len(ds); j++ {
			if ds[j].d < ds[m].d || (ds[j].d == ds[m].d && ds[j].id < ds[m].id) {
				m = j
			}
		}
		ds[i], ds[m] = ds[m], ds[i]
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ds[i].id
	}
	return out
}

// FOsc returns the self-oscillation frequency (GHz) of ring r when loaded
// with loadCap fF of tapped capacitance: f = 1 / (2 sqrt(L C)), the paper's
// equation (2). The ring contributes CRing per unit length and LRing per
// unit length of loop.
func (a *Array) FOsc(r *Ring, loadCap float64) float64 {
	L := a.Params.LRing * r.Perimeter() // pH
	C := a.Params.CRing*r.Perimeter() + loadCap
	// pH * fF = 1e-12 * 1e-15 s^2 = 1e-27 s^2; f in Hz = 1/(2 sqrt(LC)).
	sec := 2 * math.Sqrt(L*C*1e-27)
	return 1 / sec / 1e9
}
