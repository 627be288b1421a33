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
	if BuildDME(nil) != nil {
		t.Fatal("empty sink set should give nil")
	}
	root := BuildDME([]geom.Point{geom.Pt(3, 4)})
	if root == nil || root.Delay != 0 || len(zsSinkPaths(root)) != 1 {
		t.Fatalf("single sink tree = %+v", root)
	}
	if ZSTotalWL(root) != 0 {
		t.Errorf("single sink WL = %v", ZSTotalWL(root))
	}
}

// TestZeroSkewPair: a diagonal pair merges on a tilted segment of points
// equidistant from both sinks; the tree spends exactly their distance.
func TestZeroSkewPair(t *testing.T) {
	a, b := geom.Pt(0, 0), geom.Pt(3, 4)
	root := BuildDME([]geom.Point{a, b})
	if math.Abs(root.Delay-3.5) > 1e-9 {
		t.Errorf("Delay = %v, want 3.5", root.Delay)
	}
	if da, db := root.Pos.Manhattan(a), root.Pos.Manhattan(b); math.Abs(da-3.5) > 1e-9 || math.Abs(db-3.5) > 1e-9 {
		t.Errorf("root %v at distances %v and %v, want 3.5 from both", root.Pos, da, db)
	}
	if wl := ZSTotalWL(root); math.Abs(wl-7) > 1e-9 {
		t.Errorf("TotalWL = %v, want 7", wl)
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
		root := BuildDME(sinks)
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
	// The close pair merges first (scan order), leaving the far pair to
	// merge with each other: a deep subtree (delay 50) whose merge point
	// lies 10 um from the shallow one (delay 0.5). Balancing them forces a
	// detour on the shallow side, and the balance must still be exact.
	sinks := []geom.Point{geom.Pt(10, 50), geom.Pt(10, 51), geom.Pt(0, 0), geom.Pt(0, 100)}
	root := BuildDME(sinks)
	paths := zsSinkPaths(root)
	if len(paths) != 4 {
		t.Fatalf("%d sinks in tree", len(paths))
	}
	for i, p := range paths {
		if math.Abs(p-root.Delay) > 1e-9 {
			t.Fatalf("sink %d path %v != %v", i, p, root.Delay)
		}
	}
	// Edge lengths never fall below the geometric distance, and one edge
	// is snaked.
	detours := 0
	var walk func(n *ZSNode)
	walk = func(n *ZSNode) {
		for i, ch := range n.Children {
			dist := n.Pos.Manhattan(ch.Pos)
			if n.EdgeLen[i] < dist-1e-9 {
				t.Fatalf("edge %v shorter than distance %v", n.EdgeLen[i], dist)
			}
			if n.EdgeLen[i] > dist+1e-9 {
				detours++
			}
			walk(ch)
		}
	}
	walk(root)
	if detours == 0 {
		t.Error("no edge was snaked")
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
		root := BuildDME(sinks)
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
