package placer

import (
	"testing"

	"rotaryclk/internal/geom"
	"rotaryclk/internal/obs"
)

func ones(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// TestNetWeightIdentity is the overlay's bit-identity contract: a scale
// vector of all-1.0 must produce byte-identical positions to the untouched
// base-weight path, through both Global and Incremental, at 1 and 8 workers.
func TestNetWeightIdentity(t *testing.T) {
	run := func(workers int, scaled bool) []geom.Point {
		c := detCircuit(t, 500, 60, 41)
		opt := Options{Parallelism: workers}
		if scaled {
			opt.NetWeights = ones(len(c.Nets))
		}
		if err := Global(c, opt); err != nil {
			t.Fatal(err)
		}
		var pn []PseudoNet
		for _, ff := range c.FlipFlops() {
			pn = append(pn, PseudoNet{Cell: ff, Target: c.Die.Center(), Weight: 4})
		}
		opt.PseudoNets = pn
		if err := incremental(c, opt); err != nil {
			t.Fatal(err)
		}
		return c.Positions()
	}
	for _, workers := range []int{1, 8} {
		want := run(workers, false)
		got := run(workers, true)
		samePositions(t, "NetWeights all-1.0", got, want)
	}
}

// TestNetWeightResetAfterOverlay: a solve with an active overlay must not
// leak scaled weights into the next overlay-free solve on the same System.
// Positions are restored between solves so the CG warm start is identical
// and any difference can only come from leaked weights.
func TestNetWeightResetAfterOverlay(t *testing.T) {
	c1 := detCircuit(t, 300, 40, 47)
	orig := c1.Positions()
	sys, err := NewSystem(c1, nil)
	if err != nil {
		t.Fatal(err)
	}
	heavy := ones(len(c1.Nets))
	for i := range heavy {
		heavy[i] = 3
	}
	if err := sys.SolveQP(Options{NetWeights: heavy}); err != nil {
		t.Fatal(err)
	}
	for i := range c1.Cells {
		c1.Cells[i].Pos = orig[i]
	}
	if err := sys.SolveQP(Options{}); err != nil {
		t.Fatal(err)
	}

	c2 := detCircuit(t, 300, 40, 47)
	sys2, err := NewSystem(c2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys2.SolveQP(Options{}); err != nil {
		t.Fatal(err)
	}
	samePositions(t, "overlay reset", c1.Positions(), c2.Positions())
}

// TestNetWeightPullsEndpointsTogether: boosting one 2-pin net's weight in the
// pure quadratic solve must shorten that net relative to the unweighted
// solve (the whole point of criticality reweighting).
func TestNetWeightPullsEndpointsTogether(t *testing.T) {
	dist := func(scale []float64) (float64, int) {
		c := detCircuit(t, 400, 50, 43)
		sys, err := NewSystem(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Find a 2-pin net with both endpoints movable.
		target := -1
		for ni, net := range c.Nets {
			if len(net.Pins) == 2 && !c.Cells[net.Pins[0]].Fixed && !c.Cells[net.Pins[1]].Fixed {
				target = ni
				break
			}
		}
		if target < 0 {
			t.Fatal("no movable 2-pin net in test circuit")
		}
		if scale != nil {
			scale = ones(len(c.Nets))
			scale[target] = 8
		}
		if err := sys.SolveQP(Options{NetWeights: scale}); err != nil {
			t.Fatal(err)
		}
		net := c.Nets[target]
		return c.Cells[net.Pins[0]].Pos.Manhattan(c.Cells[net.Pins[1]].Pos), target
	}
	base, n1 := dist(nil)
	boosted, n2 := dist([]float64{})
	if n1 != n2 {
		t.Fatalf("target net diverged: %d vs %d", n1, n2)
	}
	if !(boosted < base) {
		t.Errorf("boosted net length %v not below base %v", boosted, base)
	}
}

// TestNetWeightCounter: every overlay application records one
// placer.system.reweights; the untouched path records none.
func TestNetWeightCounter(t *testing.T) {
	c := detCircuit(t, 200, 30, 53)
	reg := obs.NewRegistry()
	sys, err := NewSystem(c, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Global(Options{spreadIters: 3, Obs: reg}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counter("placer.system.reweights"); got != 0 {
		t.Errorf("untouched path recorded %d reweights", got)
	}
	if err := sys.Global(Options{spreadIters: 3, Obs: reg, NetWeights: ones(len(c.Nets))}); err != nil {
		t.Fatal(err)
	}
	reweights := reg.Snapshot().Counter("placer.system.reweights")
	if reweights == 0 {
		t.Error("overlay path recorded no reweights")
	}
	if reuses := reg.Snapshot().Counter("placer.system.reuses"); reweights > reuses {
		t.Errorf("reweights %d exceeds reuses %d", reweights, reuses)
	}
}

// TestNetWeightShortVector: indices beyond the scale vector weigh 1, so a
// truncated vector equal to a padded one is the same solve.
func TestNetWeightShortVector(t *testing.T) {
	run := func(pad bool) []geom.Point {
		c := detCircuit(t, 200, 30, 59)
		w := []float64{2.5, 1, 3}
		if pad {
			w = append(w, ones(len(c.Nets)-3)...)
		}
		if err := Global(c, Options{NetWeights: w}); err != nil {
			t.Fatal(err)
		}
		return c.Positions()
	}
	samePositions(t, "short scale vector", run(false), run(true))
}
