package oracle

// Greedy instance shrinking: starting from a failing instance, repeatedly
// try removing one component (flip-flop, ring, constraint pair, net, cell)
// and keep the removal whenever the violation persists, until a fixpoint.
// The predicates re-run the exact check that fired, so a shrunk repro is a
// still-failing instance, not merely a smaller one.

import (
	"math/rand"
	"testing"

	"rotaryclk/internal/geom"
	"rotaryclk/internal/skew"
)

// shrinkAssign minimizes a failing assignment instance by dropping
// flip-flops, then rings (with their capacity entries), to a fixpoint.
func shrinkAssign(in *AssignInstance, fails func(*AssignInstance) bool) *AssignInstance {
	cur := in.clone()
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.FFs) && len(cur.FFs) > 1; i++ {
			cand := cur.clone()
			cand.FFs = append(cand.FFs[:i], cand.FFs[i+1:]...)
			if fails(cand) {
				cur = cand
				changed = true
				i--
			}
		}
		for j := 0; j < len(cur.Rings) && len(cur.Rings) > 1; j++ {
			cand := cur.clone()
			cand.Rings = append(cand.Rings[:j], cand.Rings[j+1:]...)
			if len(cand.Capacity) > j {
				cand.Capacity = append(cand.Capacity[:j], cand.Capacity[j+1:]...)
			}
			if fails(cand) {
				cur = cand
				changed = true
				j--
			}
		}
	}
	return cur
}

// shrinkSkew minimizes a failing skew instance by dropping sequential
// pairs, then compacting unused flip-flop indices (anchors, when present,
// follow their flip-flops).
func shrinkSkew(in *SkewInstance, fails func(*SkewInstance) bool) *SkewInstance {
	cur := in.clone()
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.Pairs) && len(cur.Pairs) > 1; i++ {
			cand := cur.clone()
			cand.Pairs = append(cand.Pairs[:i], cand.Pairs[i+1:]...)
			if fails(cand) {
				cur = cand
				changed = true
				i--
			}
		}
	}
	// Compact: renumber the variables actually referenced.
	remap := make(map[int]int)
	cand := cur.clone()
	for i, p := range cand.Pairs {
		for _, v := range []int{p.U, p.V} {
			if _, ok := remap[v]; !ok {
				remap[v] = len(remap)
			}
		}
		cand.Pairs[i].U = remap[p.U]
		cand.Pairs[i].V = remap[p.V]
	}
	cand.N = len(remap)
	if len(cur.Anchors) > 0 {
		cand.Anchors = make([]skew.Anchor, cand.N)
		for old, nu := range remap {
			cand.Anchors[nu] = cur.Anchors[old]
		}
	}
	if cand.N > 0 && fails(cand) {
		return cand
	}
	return cur
}

// shrinkPlace minimizes a failing placement instance by dropping nets and
// pseudo-nets, then removing cells no net or pseudo-net references.
func shrinkPlace(in *PlaceInstance, fails func(*PlaceInstance) bool) *PlaceInstance {
	cur := in.clone()
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.Nets); i++ {
			cand := cur.clone()
			cand.Nets = append(cand.Nets[:i], cand.Nets[i+1:]...)
			if fails(cand) {
				cur = cand
				changed = true
				i--
			}
		}
		for i := 0; i < len(cur.Pseudo); i++ {
			cand := cur.clone()
			cand.Pseudo = append(cand.Pseudo[:i], cand.Pseudo[i+1:]...)
			if fails(cand) {
				cur = cand
				changed = true
				i--
			}
		}
	}
	// Drop unreferenced cells, remapping net and pseudo indices.
	used := make([]bool, len(cur.Cells))
	for _, pins := range cur.Nets {
		for _, id := range pins {
			used[id] = true
		}
	}
	for _, pn := range cur.Pseudo {
		if pn.Cell >= 0 && pn.Cell < len(used) {
			used[pn.Cell] = true
		}
	}
	remap := make([]int, len(cur.Cells))
	cand := &PlaceInstance{Die: cur.Die}
	for i, u := range used {
		if !u {
			remap[i] = -1
			continue
		}
		remap[i] = len(cand.Cells)
		cand.Cells = append(cand.Cells, cur.Cells[i])
	}
	if len(cand.Cells) == 0 || len(cand.Cells) == len(cur.Cells) {
		return cur
	}
	for _, pins := range cur.Nets {
		np := make([]int, len(pins))
		for k, id := range pins {
			np[k] = remap[id]
		}
		cand.Nets = append(cand.Nets, np)
	}
	for _, pn := range cur.Pseudo {
		pn.Cell = remap[pn.Cell]
		cand.Pseudo = append(cand.Pseudo, pn)
	}
	if fails(cand) {
		return cand
	}
	return cur
}

func TestShrinkAssign(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := genAssign(rng)
	in.FFs[2].Target = 424242 // the "interesting" flip-flop
	fails := func(c *AssignInstance) bool {
		for _, f := range c.FFs {
			if f.Target == 424242 {
				return true
			}
		}
		return false
	}
	sh := shrinkAssign(in, fails)
	if !fails(sh) {
		t.Fatal("shrunk instance no longer fails")
	}
	if len(sh.FFs) != 1 || sh.FFs[0].Target != 424242 {
		t.Errorf("want exactly the marked FF, got %d FFs", len(sh.FFs))
	}
	if len(sh.Rings) != 1 {
		t.Errorf("rings not shrunk: %d", len(sh.Rings))
	}
	if len(in.FFs) < 4 {
		t.Errorf("shrinking mutated the original instance: %d FFs", len(in.FFs))
	}
}

func TestShrinkSkew(t *testing.T) {
	in := &SkewInstance{N: 6, T: 1000, Setup: 30, Hold: 15}
	for i := 0; i < 5; i++ {
		in.Pairs = append(in.Pairs, skew.SeqPair{U: i, V: i + 1, DMax: 500, DMin: 100})
	}
	in.Pairs[3].DMax = 777 // the pair that matters
	fails := func(c *SkewInstance) bool {
		for _, p := range c.Pairs {
			if p.DMax == 777 {
				return true
			}
		}
		return false
	}
	sh := shrinkSkew(in, fails)
	if !fails(sh) {
		t.Fatal("shrunk instance no longer fails")
	}
	if len(sh.Pairs) != 1 || sh.Pairs[0].DMax != 777 {
		t.Errorf("want exactly the marked pair, got %d pairs", len(sh.Pairs))
	}
	if sh.N != 2 || sh.Pairs[0].U >= 2 || sh.Pairs[0].V >= 2 {
		t.Errorf("variables not compacted: N=%d pair=%+v", sh.N, sh.Pairs[0])
	}
}

func TestShrinkPlace(t *testing.T) {
	in := &PlaceInstance{Die: geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))}
	for i := 0; i < 8; i++ {
		in.Cells = append(in.Cells, PlaceCell{Pos: geom.Pt(float64(i)*10, 50)})
	}
	in.Cells[0].Fixed = true
	in.Nets = [][]int{{0, 1}, {2, 3}, {4, 5, 6}, {6, 7}}
	in.Pseudo = []PseudoSpec{{Cell: 1, Target: geom.Pt(5, 5), Weight: 2}}
	// The failure depends only on the net joining the cells at x=20 and x=30.
	fails := func(c *PlaceInstance) bool {
		for _, pins := range c.Nets {
			has20, has30 := false, false
			for _, id := range pins {
				if c.Cells[id].Pos.X == 20 {
					has20 = true
				}
				if c.Cells[id].Pos.X == 30 {
					has30 = true
				}
			}
			if has20 && has30 {
				return true
			}
		}
		return false
	}
	sh := shrinkPlace(in, fails)
	if !fails(sh) {
		t.Fatal("shrunk instance no longer fails")
	}
	if len(sh.Nets) != 1 {
		t.Errorf("nets not shrunk: %d", len(sh.Nets))
	}
	if len(sh.Pseudo) != 0 {
		t.Errorf("pseudo nets not shrunk: %d", len(sh.Pseudo))
	}
	if len(sh.Cells) != 2 {
		t.Errorf("unreferenced cells not dropped: %d", len(sh.Cells))
	}
	if len(in.Nets) != 4 || len(in.Cells) != 8 {
		t.Error("shrinking mutated the original instance")
	}
}
