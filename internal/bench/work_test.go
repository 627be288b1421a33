package bench

import (
	"testing"
)

// workGrowth bounds how much faster than the design each stage's work may
// grow: a counter per unit of design at 32k cells over the same ratio at
// 8k cells must not exceed max. Per is "cells" for the placement and skew
// counters and "ffs" for stage 3's (the sweep's spec has one flip-flop per
// ten cells at both sizes). Measured is that growth when the bound was set
// (seed 1, -j 1; counters do not depend on the host). A stage whose work
// is linear in the design reads at most 1, which is the bound of every
// stage but one.
var workGrowth = []struct {
	counter, per  string
	measured, max float64
}{
	{"placer.cg.iters", "cells", 0.269, 1},
	{"placer.detailed.tried", "cells", 0.585, 1},
	{"assign.tap.queries", "ffs", 0.682, 1},
	{"skew.edge_visits", "cells", 0.509, 1},
	// The augmenting search's settled nodes per flip-flop do grow with
	// the design; this bound holds today's growth until that is fixed.
	{"mcmf.settled", "ffs", 5.252, 5.3},
}

// TestWorkScaling runs the sweep's spec at 8k and 32k cells at Parallelism
// 1 and fails when any stage's work counter per unit of design grows past
// its bound in workGrowth. Counters are deterministic and bit-equal across
// worker counts, so the gate does not move with the host, and a failure
// names the stage whose work grew.
func TestWorkScaling(t *testing.T) {
	const small, large = 8 << 10, 32 << 10
	var pts [2]ScalePoint
	for i, n := range []int{small, large} {
		pt, err := runScalePoint(n, 1, 1)
		if err != nil {
			t.Fatalf("%d cells: %v", n, err)
		}
		pts[i] = pt
	}
	per := func(pt ScalePoint, counter, unit string) float64 {
		d := pt.Cells
		if unit == "ffs" {
			d = pt.FFs
		}
		return float64(pt.Counters[counter]) / float64(d)
	}
	for _, g := range workGrowth {
		a, b := per(pts[0], g.counter, g.per), per(pts[1], g.counter, g.per)
		if a <= 0 || b <= 0 {
			t.Errorf("%s: %.4g and %.4g per %s at %d and %d cells, want both positive", g.counter, a, b, g.per, small, large)
			continue
		}
		growth := b / a
		t.Logf("%s per %s: %.4g at %d cells, %.4g at %d cells, growth %.3fx (measured %.2fx when set, bound %.2fx)",
			g.counter, g.per, a, pts[0].Cells, b, pts[1].Cells, growth, g.measured, g.max)
		if growth > g.max {
			t.Errorf("%s per %s grew %.3fx from %d to %d cells, bound %.2fx", g.counter, g.per, growth, pts[0].Cells, pts[1].Cells, g.max)
		}
	}
}
