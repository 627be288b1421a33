// Package clocktree builds conventional clock distribution trees over a set
// of sinks by recursive geometric matching (the clustering approach of
// Edahiro and the zero-skew constructions of Chao et al., the baselines the
// paper's Table II cites for its average source-sink path length column).
//
// The tree is used as the conventional-clocking reference: its average
// source-to-sink path length is what the rotary flow's average flip-flop
// tapping distance (AFD) is compared against.
package clocktree

import (
	"math"

	"rotaryclk/internal/geom"
)

// Node is one vertex of the clock tree. Leaves carry Sink >= 0 (the index of
// the sink they serve); internal nodes have exactly the children they merged.
type Node struct {
	Pos      geom.Point
	Sink     int
	Children []*Node
}

// Build constructs a clock tree over the sinks by bottom-up nearest-neighbor
// pairing (pairUp), placing each parent at its children's midpoint. It
// returns nil for an empty sink set.
func Build(sinks []geom.Point) *Node {
	if len(sinks) == 0 {
		return nil
	}
	leaves := make([]*Node, len(sinks))
	for i, p := range sinks {
		leaves[i] = &Node{Pos: p, Sink: i}
	}
	return pairUp(leaves,
		func(a, b *Node) float64 { return a.Pos.Manhattan(b.Pos) },
		func(a, b *Node) *Node {
			mid := geom.Pt((a.Pos.X+b.Pos.X)/2, (a.Pos.Y+b.Pos.Y)/2)
			return &Node{Pos: mid, Sink: -1, Children: []*Node{a, b}}
		})
}

// pairUp merges the non-empty leaves into one root, level by level: each
// level greedily matches every unmatched node, in scan order, with its
// closest later unmatched node under dist (scan order breaks ties), merges
// the pair, and promotes an odd one out unchanged, halving the node count
// until one root remains. Every tree builder of this package shares it.
func pairUp[T any](leaves []T, dist func(a, b T) float64, merge func(a, b T) T) T {
	level := leaves
	for len(level) > 1 {
		used := make([]bool, len(level))
		var next []T
		for i := range level {
			if used[i] {
				continue
			}
			used[i] = true
			best, bestD := -1, math.Inf(1)
			for j := i + 1; j < len(level); j++ {
				if used[j] {
					continue
				}
				if d := dist(level[i], level[j]); d < bestD {
					best, bestD = j, d
				}
			}
			if best < 0 {
				next = append(next, level[i])
				continue
			}
			used[best] = true
			next = append(next, merge(level[i], level[best]))
		}
		level = next
	}
	return level[0]
}

// AvgSourceSinkPath returns the mean, over all sinks, of the wirelength of
// the root-to-sink path (Table II's PL column). Returns 0 for nil trees.
func AvgSourceSinkPath(root *Node) float64 {
	if root == nil {
		return 0
	}
	total, count := pathSums(root, 0)
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

func pathSums(n *Node, depthLen float64) (total float64, sinks int) {
	if len(n.Children) == 0 {
		if n.Sink >= 0 {
			return depthLen, 1
		}
		return 0, 0
	}
	for _, ch := range n.Children {
		t, s := pathSums(ch, depthLen+n.Pos.Manhattan(ch.Pos))
		total += t
		sinks += s
	}
	return total, sinks
}

// TotalWL returns the total wirelength of the tree (sum of all parent-child
// Manhattan segments).
func TotalWL(root *Node) float64 {
	if root == nil {
		return 0
	}
	total := 0.0
	for _, ch := range root.Children {
		total += root.Pos.Manhattan(ch.Pos) + TotalWL(ch)
	}
	return total
}
