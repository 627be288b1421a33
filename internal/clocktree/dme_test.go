package clocktree

import (
	"math"
	"math/rand"
	"testing"

	"rotaryclk/internal/geom"
)

func TestDMEEmptyAndSingle(t *testing.T) {
	if BuildDME(nil) != nil {
		t.Fatal("empty should be nil")
	}
	root := BuildDME([]geom.Point{geom.Pt(7, 3)})
	if root == nil || root.Delay != 0 || root.Pos.Manhattan(geom.Pt(7, 3)) > 1e-9 {
		t.Fatalf("single-sink DME = %+v", root)
	}
}

func TestDMEPair(t *testing.T) {
	root := BuildDME([]geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)})
	if math.Abs(root.Delay-5) > 1e-9 {
		t.Errorf("delay = %v, want 5", root.Delay)
	}
	paths := zsSinkPaths(root)
	if len(paths) != 2 || math.Abs(paths[0]-paths[1]) > 1e-9 {
		t.Errorf("unbalanced: %v", paths)
	}
	if wl := ZSTotalWL(root); math.Abs(wl-10) > 1e-9 {
		t.Errorf("WL = %v, want 10", wl)
	}
}

func TestDMEZeroSkewProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{2, 3, 5, 17, 64, 200} {
		sinks := make([]geom.Point, n)
		for i := range sinks {
			sinks[i] = geom.Pt(rng.Float64()*5000, rng.Float64()*5000)
		}
		root := BuildDME(sinks)
		paths := zsSinkPaths(root)
		if len(paths) != n {
			t.Fatalf("n=%d: %d sinks", n, len(paths))
		}
		for i, p := range paths {
			if math.Abs(p-root.Delay) > 1e-6*(1+root.Delay) {
				t.Fatalf("n=%d: sink %d path %v != %v", n, i, p, root.Delay)
			}
		}
		// Edge lengths cover the geometric distances (snaking only adds).
		var walk func(z *ZSNode)
		walk = func(z *ZSNode) {
			for k, ch := range z.Children {
				if z.EdgeLen[k] < z.Pos.Manhattan(ch.Pos)-1e-6 {
					t.Fatalf("n=%d: edge %v below distance %v", n, z.EdgeLen[k], z.Pos.Manhattan(ch.Pos))
				}
				walk(ch)
			}
		}
		walk(root)
	}
}

func TestDMEKnownThreeSink(t *testing.T) {
	// Two coincident sinks plus one distant: the pair merges with zero
	// wire, then one edge of length d/2 each side reaches the far sink.
	sinks := []geom.Point{geom.Pt(0, 0), geom.Pt(0, 0), geom.Pt(8, 0)}
	root := BuildDME(sinks)
	if math.Abs(root.Delay-4) > 1e-9 {
		t.Errorf("delay = %v, want 4", root.Delay)
	}
	if wl := ZSTotalWL(root); math.Abs(wl-8) > 1e-9 {
		t.Errorf("WL = %v, want 8", wl)
	}
}

func TestUVRectArithmetic(t *testing.T) {
	a := uvFromPoint(geom.Pt(0, 0))
	b := uvFromPoint(geom.Pt(3, 4))
	if d := a.dist(b); math.Abs(d-7) > 1e-9 {
		t.Errorf("uv dist = %v, want Manhattan 7", d)
	}
	// Expansion by the full distance makes the regions touch.
	if d := a.expand(7).dist(b); d > 1e-9 {
		t.Errorf("expanded region should reach b, gap %v", d)
	}
	// Round trip through point().
	if p := uvFromPoint(geom.Pt(5, -2)).point(); p.Manhattan(geom.Pt(5, -2)) > 1e-9 {
		t.Errorf("uv round trip = %v", p)
	}
	// nearestTo clamps into the rectangle.
	r := a.expand(2) // Manhattan ball radius 2 around origin
	q := r.nearestTo(uvFromPoint(geom.Pt(10, 0)))
	p := q.point()
	if p.Manhattan(geom.Pt(0, 0)) > 2+1e-9 {
		t.Errorf("nearest point %v left the ball", p)
	}
}

func BenchmarkTreeBuilders(b *testing.B) {
	rng := rand.New(rand.NewSource(63))
	sinks := make([]geom.Point, 512)
	for i := range sinks {
		sinks[i] = geom.Pt(rng.Float64()*8000, rng.Float64()*8000)
	}
	b.Run("pairing", func(b *testing.B) {
		var wl float64
		for i := 0; i < b.N; i++ {
			wl = TotalWL(Build(sinks))
		}
		b.ReportMetric(wl/1000, "WL-mm")
	})
	b.Run("zeroskew-dme", func(b *testing.B) {
		var wl float64
		for i := 0; i < b.N; i++ {
			wl = ZSTotalWL(BuildDME(sinks))
		}
		b.ReportMetric(wl/1000, "WL-mm")
	})
}
