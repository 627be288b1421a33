package clocktree

import (
	"math"

	"rotaryclk/internal/geom"
)

// Deferred-Merge Embedding (DME), the exact zero-skew construction of Chao,
// Hsu, Ho, Boese and Kahng that the paper's Table II cites. DME defers the
// embedding of internal nodes: the bottom-up phase computes, per node, the
// locus of all positions admitting a zero-skew subtree of minimal wirelength
// (a merge region), and the top-down phase picks concrete points.
//
// The geometry uses the classic rotation u = x+y, v = x-y: the Manhattan
// metric in (x, y) becomes Chebyshev (L-infinity) in (u, v), where Manhattan
// balls — and therefore all tilted rectangular regions (TRRs) — are plain
// axis-aligned rectangles. Merge regions stay axis-aligned rectangles under
// expansion and intersection, so the whole construction is rectangle
// arithmetic.

// uvRect is an axis-aligned rectangle in the rotated (u, v) plane.
type uvRect struct {
	uLo, uHi, vLo, vHi float64
}

func uvFromPoint(p geom.Point) uvRect {
	u, v := p.X+p.Y, p.X-p.Y
	return uvRect{u, u, v, v}
}

// point returns a representative (x, y) point of the region (its center).
func (r uvRect) point() geom.Point {
	u, v := (r.uLo+r.uHi)/2, (r.vLo+r.vHi)/2
	return geom.Pt((u+v)/2, (u-v)/2)
}

// expand grows the region by radius e in the Chebyshev metric (the Minkowski
// sum with an L-infinity ball, i.e. a Manhattan ball back in (x, y)).
func (r uvRect) expand(e float64) uvRect {
	return uvRect{r.uLo - e, r.uHi + e, r.vLo - e, r.vHi + e}
}

// dist returns the Chebyshev distance between two regions (0 if they
// intersect) — the minimum Manhattan distance between their (x, y) shapes.
func (r uvRect) dist(o uvRect) float64 {
	du := math.Max(0, math.Max(o.uLo-r.uHi, r.uLo-o.uHi))
	dv := math.Max(0, math.Max(o.vLo-r.vHi, r.vLo-o.vHi))
	return math.Max(du, dv)
}

// intersect clips r to o. Callers guarantee a nonempty result; degenerate
// (zero-area) rectangles are fine and common (they are the merge segments).
func (r uvRect) intersect(o uvRect) uvRect {
	out := uvRect{
		uLo: math.Max(r.uLo, o.uLo), uHi: math.Min(r.uHi, o.uHi),
		vLo: math.Max(r.vLo, o.vLo), vHi: math.Min(r.vHi, o.vHi),
	}
	if out.uLo > out.uHi {
		m := (out.uLo + out.uHi) / 2
		out.uLo, out.uHi = m, m
	}
	if out.vLo > out.vHi {
		m := (out.vLo + out.vHi) / 2
		out.vLo, out.vHi = m, m
	}
	return out
}

// nearestTo returns the point of r nearest (Chebyshev) to q, by clamping.
func (r uvRect) nearestTo(q uvRect) uvRect {
	u := math.Min(math.Max(q.uLo, r.uLo), r.uHi)
	v := math.Min(math.Max(q.vLo, r.vLo), r.vHi)
	return uvRect{u, u, v, v}
}

// dmeNode is one node of the deferred tree.
type dmeNode struct {
	region   uvRect
	delay    float64 // zero-skew delay from this node to every sink below
	sink     int
	children [2]*dmeNode
	edge     [2]float64 // wirelength budgeted to each child (detours included)
}

// ZSNode is one vertex of a zero-skew clock tree: like Node, but carrying
// the wirelength of the edge to each child (EdgeLen, which may exceed the
// geometric distance when balancing requires a wire detour, the "snaking"
// of exact zero-skew routing) and the downstream delay Delay.
type ZSNode struct {
	Pos      geom.Point
	Sink     int
	Children []*ZSNode
	EdgeLen  []float64 // wirelength to each child (>= Manhattan distance)
	Delay    float64   // delay from this node to every sink below it
}

// BuildDME constructs a zero-skew clock tree with the DME algorithm over the
// nearest-neighbor pairing topology, under the linear delay model (delay
// proportional to wirelength). Every root-to-sink path length equals
// root.Delay exactly (verified by the test suite); total wirelength is the
// sum of EdgeLen. It returns nil for an empty sink set.
func BuildDME(sinks []geom.Point) *ZSNode {
	if len(sinks) == 0 {
		return nil
	}
	// Bottom-up: merge by proximity of regions.
	leaves := make([]*dmeNode, len(sinks))
	for i, p := range sinks {
		leaves[i] = &dmeNode{region: uvFromPoint(p), sink: i}
	}
	root := pairUp(leaves, func(a, b *dmeNode) float64 { return a.region.dist(b.region) }, mergeDME)

	// Top-down: embed the root at its region's representative point, then
	// every child at the point of its merge region nearest to its parent
	// (snaking absorbs any slack up to the budgeted edge length).
	return embedDME(root, root.region.point())
}

// mergeDME builds the parent of a and b: split the region distance d so the
// two subtree delays balance (with a detour on the shallow side when one
// subtree is too deep), and intersect the expanded regions.
func mergeDME(a, b *dmeNode) *dmeNode {
	d := a.region.dist(b.region)
	e1 := (d + b.delay - a.delay) / 2
	e2 := d - e1
	switch {
	case e1 < 0:
		e1 = 0
		e2 = a.delay - b.delay
	case e2 < 0:
		e2 = 0
		e1 = b.delay - a.delay
	}
	region := a.region.expand(e1).intersect(b.region.expand(e2))
	return &dmeNode{
		region:   region,
		delay:    a.delay + e1,
		children: [2]*dmeNode{a, b},
		edge:     [2]float64{e1, e2},
	}
}

// embedDME places node n at the uv point `at` and recursively embeds its
// children, producing the concrete ZSNode tree.
func embedDME(n *dmeNode, at geom.Point) *ZSNode {
	out := &ZSNode{Pos: at, Sink: n.sink, Delay: n.delay}
	if n.children[0] == nil {
		out.Sink = n.sink
		return out
	}
	out.Sink = -1
	atUV := uvFromPoint(at)
	for k, ch := range n.children {
		if ch == nil {
			continue
		}
		// The child sits at the point of its region nearest to the parent;
		// the geometric distance never exceeds the budgeted edge length
		// (at lies in child.region.expand(edge)), and any slack is wire
		// snaking that the budget already pays for.
		spot := ch.region.nearestTo(atUV)
		child := embedDME(ch, spot.point())
		out.Children = append(out.Children, child)
		out.EdgeLen = append(out.EdgeLen, n.edge[k])
	}
	return out
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
// zero-skew tree. Every path has the same length, root.Delay, so it returns
// that (a function for symmetry with AvgSourceSinkPath, validated by the
// tests).
func ZSAvgSourceSinkPath(root *ZSNode) float64 {
	if root == nil {
		return 0
	}
	return root.Delay
}
