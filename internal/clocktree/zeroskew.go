package clocktree

import (
	"math"

	"rotaryclk/internal/geom"
)

// ZSNode is one vertex of a zero-skew clock tree: like Node, but carrying
// the wirelength of the edge to its parent (EdgeLen, which may exceed the
// geometric distance when balancing requires a wire detour, the "snaking" of
// Tsay's exact zero-skew algorithm) and the downstream delay Delay.
type ZSNode struct {
	Pos      geom.Point
	Sink     int
	Children []*ZSNode
	EdgeLen  []float64 // wirelength to each child (>= Manhattan distance)
	Delay    float64   // delay from this node to every sink below it
}

// BuildZeroSkew constructs a zero-skew clock tree over the sinks under the
// linear delay model (delay proportional to wirelength), the construction
// style of Chao et al. and Edahiro that the paper's Table II cites: sinks
// are merged bottom-up by nearest-neighbor pairing; each parent is embedded
// on the segment between its children at the exact balance point, with a
// wire detour on the short side when one subtree is already deeper than the
// other can reach.
//
// The result satisfies, exactly, root-to-sink delay = root.Delay for every
// sink (verified by the test suite); total wirelength is the sum of EdgeLen.
func BuildZeroSkew(sinks []geom.Point) *ZSNode {
	if len(sinks) == 0 {
		return nil
	}
	leaves := make([]*ZSNode, len(sinks))
	for i, p := range sinks {
		leaves[i] = &ZSNode{Pos: p, Sink: i}
	}
	return pairUp(leaves, func(a, b *ZSNode) float64 { return a.Pos.Manhattan(b.Pos) }, mergeZS)
}

// mergeZS embeds the parent of a and b at the delay balance point. Under the
// linear model the parent sits at distance e1 from a and e2 from b with
//
//	e1 + e2 = D,  a.Delay + e1 = b.Delay + e2
//
// where D is the Manhattan distance between the children. When the balance
// point falls outside the segment (one subtree too deep), the parent sits on
// the shallow child's far end and the deep child's edge is snaked.
func mergeZS(a, b *ZSNode) *ZSNode {
	d := a.Pos.Manhattan(b.Pos)
	e1 := (d + b.Delay - a.Delay) / 2
	e2 := d - e1
	var pos geom.Point
	switch {
	case e1 < 0:
		// a is too deep: parent at a, snake the wire to b.
		pos = a.Pos
		e1 = 0
		e2 = a.Delay - b.Delay // detoured length > d
	case e2 < 0:
		pos = b.Pos
		e2 = 0
		e1 = b.Delay - a.Delay
	default:
		pos = pointAlongManhattan(a.Pos, b.Pos, e1)
	}
	return &ZSNode{
		Pos:      pos,
		Sink:     -1,
		Children: []*ZSNode{a, b},
		EdgeLen:  []float64{e1, e2},
		Delay:    a.Delay + e1, // == b.Delay + e2 by construction
	}
}

// pointAlongManhattan returns a point at Manhattan distance d from a on a
// shortest rectilinear route from a to b (x first, then y).
func pointAlongManhattan(a, b geom.Point, d float64) geom.Point {
	dx := b.X - a.X
	adx := math.Abs(dx)
	if d <= adx {
		return geom.Pt(a.X+math.Copysign(d, dx), a.Y)
	}
	rem := d - adx
	dy := b.Y - a.Y
	if rem > math.Abs(dy) {
		rem = math.Abs(dy)
	}
	return geom.Pt(b.X, a.Y+math.Copysign(rem, dy))
}

// ZSTotalWL returns the total wirelength of the zero-skew tree (sum of edge
// lengths including detours).
func ZSTotalWL(root *ZSNode) float64 {
	if root == nil {
		return 0
	}
	total := 0.0
	for i, ch := range root.Children {
		total += root.EdgeLen[i] + ZSTotalWL(ch)
	}
	return total
}

// ZSAvgSourceSinkPath returns the average root-to-sink wirelength of the
// zero-skew tree. By construction every path has the same length, equal to
// root.Delay, so this simply returns it (kept as a function for symmetry
// with AvgSourceSinkPath and validated by the tests).
func ZSAvgSourceSinkPath(root *ZSNode) float64 {
	if root == nil {
		return 0
	}
	return root.Delay
}
