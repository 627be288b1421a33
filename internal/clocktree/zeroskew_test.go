package clocktree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rotaryclk/internal/geom"
)

// zsSinkPaths returns the root-to-sink wirelength of every sink leaf of a
// zero-skew tree, keyed by sink index.
func zsSinkPaths(root *ZSNode) map[int]float64 {
	paths := map[int]float64{}
	var walk func(n *ZSNode, acc float64)
	walk = func(n *ZSNode, acc float64) {
		if len(n.Children) == 0 && n.Sink >= 0 {
			paths[n.Sink] = acc
		}
		for i, ch := range n.Children {
			walk(ch, acc+n.EdgeLen[i])
		}
	}
	if root != nil {
		walk(root, 0)
	}
	return paths
}

func TestZeroSkewEmptyAndSingle(t *testing.T) {
	if BuildZeroSkew(nil) != nil {
		t.Fatal("empty sink set should give nil")
	}
	root := BuildZeroSkew([]geom.Point{geom.Pt(3, 4)})
	if root == nil || root.Delay != 0 || len(zsSinkPaths(root)) != 1 {
		t.Fatalf("single sink tree = %+v", root)
	}
	if ZSTotalWL(root) != 0 {
		t.Errorf("single sink WL = %v", ZSTotalWL(root))
	}
}

func TestZeroSkewPair(t *testing.T) {
	root := BuildZeroSkew([]geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)})
	if math.Abs(root.Delay-5) > 1e-9 {
		t.Errorf("Delay = %v, want 5", root.Delay)
	}
	paths := zsSinkPaths(root)
	if len(paths) != 2 || math.Abs(paths[0]-paths[1]) > 1e-9 {
		t.Errorf("paths unbalanced: %v", paths)
	}
	if math.Abs(ZSTotalWL(root)-10) > 1e-9 {
		t.Errorf("TotalWL = %v", ZSTotalWL(root))
	}
}

// TestZeroSkewExactBalance is the core property: every root-to-sink path has
// exactly the same wirelength, for any sink configuration.
func TestZeroSkewExactBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 3, 5, 16, 47, 128} {
		sinks := make([]geom.Point, n)
		for i := range sinks {
			sinks[i] = geom.Pt(rng.Float64()*5000, rng.Float64()*5000)
		}
		root := BuildZeroSkew(sinks)
		paths := zsSinkPaths(root)
		if len(paths) != n {
			t.Fatalf("n=%d: %d sinks in tree", n, len(paths))
		}
		for i, p := range paths {
			if math.Abs(p-root.Delay) > 1e-6 {
				t.Fatalf("n=%d: sink %d path %v != delay %v", n, i, p, root.Delay)
			}
		}
	}
}

func TestZeroSkewDetourCase(t *testing.T) {
	// Three collinear sinks: after merging the close pair, merging with the
	// far sink forces a detour (the merged subtree is deep, the lone sink
	// shallow). The balance must still be exact.
	sinks := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(3, 0)}
	root := BuildZeroSkew(sinks)
	paths := zsSinkPaths(root)
	if len(paths) != 3 {
		t.Fatalf("%d sinks in tree", len(paths))
	}
	for i, p := range paths {
		if math.Abs(p-root.Delay) > 1e-9 {
			t.Fatalf("sink %d path %v != %v", i, p, root.Delay)
		}
	}
	// Edge lengths never fall below the geometric distance.
	var walk func(n *ZSNode)
	walk = func(n *ZSNode) {
		for i, ch := range n.Children {
			if n.EdgeLen[i] < n.Pos.Manhattan(ch.Pos)-1e-9 {
				t.Fatalf("edge %v shorter than distance %v", n.EdgeLen[i], n.Pos.Manhattan(ch.Pos))
			}
			walk(ch)
		}
	}
	walk(root)
}

func TestZeroSkewCostsMoreThanUnbalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	sinks := make([]geom.Point, 64)
	for i := range sinks {
		sinks[i] = geom.Pt(rng.Float64()*3000, rng.Float64()*3000)
	}
	plain := TotalWL(Build(sinks))
	zs := ZSTotalWL(BuildZeroSkew(sinks))
	// Zero skew costs wirelength (detours + balance points), never less
	// than ~the midpoint tree on the same topology.
	if zs < plain*0.99 {
		t.Errorf("zero-skew WL %v below plain tree %v", zs, plain)
	}
}

func TestZeroSkewQuickProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n == 0 {
			return true
		}
		if n > 24 {
			n = 24
		}
		sinks := make([]geom.Point, n)
		for i := 0; i < n; i++ {
			sinks[i] = geom.Pt(math.Mod(math.Abs(xs[i]), 1e4), math.Mod(math.Abs(ys[i]), 1e4))
			if math.IsNaN(sinks[i].X) || math.IsNaN(sinks[i].Y) {
				return true
			}
		}
		root := BuildZeroSkew(sinks)
		paths := zsSinkPaths(root)
		if len(paths) != n {
			return false
		}
		for _, p := range paths {
			if math.Abs(p-root.Delay) > 1e-6*(1+root.Delay) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPointAlongManhattan(t *testing.T) {
	a, b := geom.Pt(0, 0), geom.Pt(3, 4)
	cases := []struct {
		d    float64
		want geom.Point
	}{
		{0, geom.Pt(0, 0)},
		{2, geom.Pt(2, 0)},
		{3, geom.Pt(3, 0)},
		{5, geom.Pt(3, 2)},
		{7, geom.Pt(3, 4)},
	}
	for _, c := range cases {
		got := pointAlongManhattan(a, b, c.d)
		if got.Manhattan(c.want) > 1e-9 {
			t.Errorf("d=%v: got %v, want %v", c.d, got, c.want)
		}
		// The point lies on a shortest route: dist(a,p) + dist(p,b) = dist(a,b).
		if math.Abs(a.Manhattan(got)+got.Manhattan(b)-a.Manhattan(b)) > 1e-9 {
			t.Errorf("d=%v: point %v off the shortest route", c.d, got)
		}
	}
}
