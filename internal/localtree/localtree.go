// Package localtree implements the first future-work item of the paper's
// Section IX: instead of connecting every flip-flop to its rotary ring with
// its own stub, flip-flops assigned to the same ring are clustered and
// served through a shared local tree — one trunk from a single tapping point
// to a junction, then per-flip-flop branches whose lengths are solved (with
// wire snaking where needed) so every flip-flop still receives exactly its
// scheduled clock delay.
//
// The package reports the wirelength saved versus the per-flip-flop stubs of
// the base assignment, the quantity the paper conjectures "could lead to
// potential benefits in wirelength and power dissipation".
package localtree

import (
	"fmt"
	"math"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/rotary"
)

// Tree is one shared local clock tree.
type Tree struct {
	Ring     int
	Tap      rotary.Tap // tapping point feeding the trunk
	Junction geom.Point // trunk end / branch start
	FFs      []int      // flip-flop indices served
	Branches []float64  // branch wirelength per served flip-flop
	TrunkLen float64    // trunk wirelength (tap stub)
	Delays   []float64  // realized delay per flip-flop (ps)
}

// WireLen returns the total wirelength of the tree.
func (t *Tree) WireLen() float64 {
	wl := t.TrunkLen
	for _, b := range t.Branches {
		wl += b
	}
	return wl
}

// Result summarizes a local-tree construction over a whole assignment.
type Result struct {
	Trees      []Tree
	Single     []int   // flip-flop indices left on their individual stubs
	BaseWL     float64 // total tapping WL of the input assignment
	TreeWL     float64 // total WL with local trees
	Saved      float64 // BaseWL - TreeWL (>= 0 by construction)
	NumCluster int
}

// Options tunes clustering.
type Options struct {
	// Radius is the maximum distance between a flip-flop and a cluster's
	// junction for it to join (um). Default: a quarter of the ring side.
	Radius float64
}

// Fixed clustering constants: minSize is the smallest cluster worth a
// shared trunk, tol the delay-realization tolerance (ps).
const (
	minSize = 2
	tol     = 1e-6
)

// Build constructs local trees for an assignment. ffPos and targets are
// indexed like the assignment's FFs. Clusters that do not strictly reduce
// wirelength fall back to the individual stubs, so Result.Saved >= 0.
func Build(arr *rotary.Array, asg *assign.Assignment, ffPos []geom.Point, targets []float64, opt Options) (*Result, error) {
	n := len(asg.Ring)
	if len(ffPos) != n || len(targets) != n {
		return nil, fmt.Errorf("localtree: got %d positions, %d targets for %d flip-flops", len(ffPos), len(targets), n)
	}
	res := &Result{}
	for i := 0; i < n; i++ {
		res.BaseWL += asg.Taps[i].WireLen
	}

	// Group by ring.
	byRing := map[int][]int{}
	for i, r := range asg.Ring {
		byRing[r] = append(byRing[r], i)
	}
	claimed := make([]bool, n)
	for ringID := 0; ringID < len(arr.Rings); ringID++ {
		members := byRing[ringID]
		if len(members) < minSize {
			continue
		}
		ring := arr.Rings[ringID]
		radius := opt.Radius
		if radius <= 0 {
			radius = ring.Side / 4
		}
		// Greedy clustering: seed with the unclaimed flip-flop whose stub is
		// longest (most to gain), absorb all unclaimed members within the
		// radius of the running centroid.
		for {
			seed := -1
			for _, i := range members {
				if claimed[i] {
					continue
				}
				if seed < 0 || asg.Taps[i].WireLen > asg.Taps[seed].WireLen {
					seed = i
				}
			}
			if seed < 0 {
				break
			}
			cluster := []int{seed}
			centroid := ffPos[seed]
			for _, i := range members {
				if claimed[i] || i == seed {
					continue
				}
				if ffPos[i].Manhattan(centroid) <= radius {
					cluster = append(cluster, i)
					centroid = meanPoint(ffPos, cluster)
				}
			}
			if len(cluster) < minSize {
				claimed[seed] = true
				res.Single = append(res.Single, seed)
				continue
			}
			tree, ok := buildTree(arr, ring, cluster, ffPos, targets)
			baseWL := 0.0
			for _, i := range cluster {
				baseWL += asg.Taps[i].WireLen
			}
			if ok && tree.WireLen() < baseWL {
				for _, i := range cluster {
					claimed[i] = true
				}
				res.Trees = append(res.Trees, *tree)
				res.NumCluster++
			} else {
				// Not profitable: release everyone but the seed.
				claimed[seed] = true
				res.Single = append(res.Single, seed)
			}
		}
	}
	for i := 0; i < n; i++ {
		if !claimed[i] {
			res.Single = append(res.Single, i)
		}
	}
	// Totals.
	res.TreeWL = 0
	for _, t := range res.Trees {
		res.TreeWL += t.WireLen()
	}
	for _, i := range res.Single {
		res.TreeWL += asg.Taps[i].WireLen
	}
	res.Saved = res.BaseWL - res.TreeWL
	return res, nil
}

// buildTree solves one shared tree: a trunk from a ring tapping point to the
// cluster centroid, then branches sized so each flip-flop receives its
// scheduled delay. The trunk's Elmore delay sees all downstream capacitance;
// branch lengths and downstream load are settled by fixed-point iteration.
func buildTree(arr *rotary.Array, ring *rotary.Ring, cluster []int, ffPos []geom.Point, targets []float64) (*Tree, bool) {
	params := arr.Params
	j := meanPoint(ffPos, cluster)

	// Direct distances junction -> flip-flops.
	direct := make([]float64, len(cluster))
	for k, i := range cluster {
		direct[k] = j.Manhattan(ffPos[i])
	}

	// The tap must deliver, at the junction, a delay early enough for every
	// member: the binding member is the one whose target minus its minimum
	// branch delay is smallest.
	branches := append([]float64(nil), direct...)
	var tree *Tree
	for pass := 0; pass < 4; pass++ {
		downCap := 0.0
		for _, b := range branches {
			downCap += params.CWire*b + params.CFF
		}
		// Junction target: the earliest required delay given minimal
		// branches, accounting for trunk loading (solved via SolveTap with
		// a virtual sink at the junction carrying the downstream load).
		tJunction := math.Inf(1)
		for k, i := range cluster {
			need := targets[i] - params.StubDelay(direct[k])
			if need < tJunction {
				tJunction = need
			}
		}
		tap, err := solveLoadedTap(ring, params, j, tJunction, downCap)
		if err != nil {
			return nil, false
		}
		// Realized junction delay with this trunk.
		dj := tap.Delay
		// Branch lengths realizing each target (snaking when longer than
		// direct is needed; infeasible if the target precedes dj).
		ok := true
		newBranches := make([]float64, len(cluster))
		delays := make([]float64, len(cluster))
		for k, i := range cluster {
			need := targets[i] - dj
			// Periodic targets: shift by whole periods like the tap solver.
			for need < -tol {
				need += params.Period
			}
			b, found := params.StubLength(need)
			if !found || b < direct[k]-tol {
				ok = false
				break
			}
			newBranches[k] = b
			delays[k] = dj + params.StubDelay(b)
		}
		if !ok {
			return nil, false
		}
		conv := true
		for k := range branches {
			if math.Abs(newBranches[k]-branches[k]) > 1e-3 {
				conv = false
			}
		}
		branches = newBranches
		tree = &Tree{
			Ring:     ring.ID,
			Tap:      tap,
			Junction: j,
			FFs:      append([]int(nil), cluster...),
			Branches: branches,
			TrunkLen: tap.WireLen,
			Delays:   delays,
		}
		if conv {
			break
		}
	}
	return tree, tree != nil
}

// solveLoadedTap finds the ring tapping point for a trunk to a junction that
// carries downstream capacitance downCap in addition to the trunk wire. It
// reuses the flexible-tapping solver with an effective pin capacitance.
func solveLoadedTap(ring *rotary.Ring, p rotary.Params, j geom.Point, target, downCap float64) (rotary.Tap, error) {
	pp := p
	pp.CFF = downCap
	return rotary.SolveTap(ring, pp, j, target)
}

func meanPoint(pos []geom.Point, idx []int) geom.Point {
	var x, y float64
	for _, i := range idx {
		x += pos[i].X
		y += pos[i].Y
	}
	n := float64(len(idx))
	return geom.Pt(x/n, y/n)
}
