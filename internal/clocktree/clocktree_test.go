package clocktree

import (
	"math"
	"math/rand"
	"testing"

	"rotaryclk/internal/geom"
)

// treeShape returns the number of sink leaves under root and the number of
// edges on its longest root-to-leaf path.
func treeShape(root *Node) (sinks, depth int) {
	if root == nil {
		return 0, 0
	}
	if len(root.Children) == 0 {
		if root.Sink >= 0 {
			return 1, 0
		}
		return 0, 0
	}
	for _, ch := range root.Children {
		s, d := treeShape(ch)
		sinks += s
		depth = max(depth, d+1)
	}
	return sinks, depth
}

func TestBuildEmpty(t *testing.T) {
	if Build(nil) != nil {
		t.Fatal("empty sink set should give nil tree")
	}
	if AvgSourceSinkPath(nil) != 0 || TotalWL(nil) != 0 {
		t.Fatal("nil tree metrics should be zero")
	}
}

func TestBuildSingle(t *testing.T) {
	root := Build([]geom.Point{geom.Pt(5, 5)})
	if root == nil || root.Sink != 0 {
		t.Fatalf("single sink tree = %+v", root)
	}
	if AvgSourceSinkPath(root) != 0 {
		t.Errorf("single sink path length should be 0")
	}
	if sinks, _ := treeShape(root); sinks != 1 {
		t.Errorf("sinks = %d", sinks)
	}
}

func TestBuildPair(t *testing.T) {
	root := Build([]geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)})
	sinks, depth := treeShape(root)
	if sinks != 2 {
		t.Fatalf("sinks = %d", sinks)
	}
	// Root at the midpoint: each sink path is 5, total WL 10.
	if math.Abs(AvgSourceSinkPath(root)-5) > 1e-9 {
		t.Errorf("PL = %v, want 5", AvgSourceSinkPath(root))
	}
	if math.Abs(TotalWL(root)-10) > 1e-9 {
		t.Errorf("TotalWL = %v, want 10", TotalWL(root))
	}
	if depth != 1 {
		t.Errorf("depth = %d", depth)
	}
}

func TestBuildCoversAllSinks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{3, 7, 16, 33, 100} {
		sinks := make([]geom.Point, n)
		for i := range sinks {
			sinks[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		}
		got, d := treeShape(Build(sinks))
		if got != n {
			t.Fatalf("n=%d: %d sinks", n, got)
		}
		// The depth of a pairing tree is ~log2(n).
		want := int(math.Ceil(math.Log2(float64(n))))
		if d < want || d > want+2 {
			t.Errorf("n=%d: depth %d, want about %d", n, d, want)
		}
	}
}

func TestPathLengthScalesWithSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	mk := func(span float64) float64 {
		sinks := make([]geom.Point, 64)
		for i := range sinks {
			sinks[i] = geom.Pt(rng.Float64()*span, rng.Float64()*span)
		}
		return AvgSourceSinkPath(Build(sinks))
	}
	small, large := mk(100), mk(4000)
	if large < 8*small {
		t.Errorf("PL should scale with die span: %v vs %v", small, large)
	}
}

func TestDeterministic(t *testing.T) {
	sinks := []geom.Point{
		geom.Pt(1, 1), geom.Pt(9, 2), geom.Pt(4, 7), geom.Pt(6, 6), geom.Pt(2, 9),
	}
	a := Build(sinks)
	b := Build(sinks)
	if AvgSourceSinkPath(a) != AvgSourceSinkPath(b) || TotalWL(a) != TotalWL(b) {
		t.Error("tree construction not deterministic")
	}
}

func TestOddCountPromotion(t *testing.T) {
	// Three sinks: one gets promoted unpaired at the first level.
	root := Build([]geom.Point{geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(100, 100)})
	if sinks, _ := treeShape(root); sinks != 3 {
		t.Fatalf("sinks = %d", sinks)
	}
	// The two nearby sinks must have merged first: their common parent sits
	// at (1,0) and the far sink joins at the root.
	if TotalWL(root) > 2+2*200+10 {
		t.Errorf("TotalWL = %v suspiciously large", TotalWL(root))
	}
}
