package placer

import (
	"math"
	"testing"

	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
)

// TestOptionsDefaults locks every normalized default so the doc comments on
// Options and the behavior of normalize cannot drift apart again (the
// spreadIters comment once said 6 while normalize set 24).
func TestOptionsDefaults(t *testing.T) {
	var opt Options
	opt.normalize(100)
	if opt.spreadIters != 24 {
		t.Errorf("spreadIters default = %d, want 24", opt.spreadIters)
	}
	if want := int(math.Max(4, math.Sqrt(100.0/4))); opt.bins != want {
		t.Errorf("bins = %d, want %d for 100 movable cells", opt.bins, want)
	}
	if opt.CGTol != 1e-6 {
		t.Errorf("CGTol default = %v, want 1e-6", opt.CGTol)
	}
	if opt.MLCoarsest != 2500 {
		t.Errorf("MLCoarsest default = %d, want 2500", opt.MLCoarsest)
	}
	// The bins derivation floors at 4 for tiny circuits.
	var small Options
	small.normalize(0)
	if small.bins != 4 {
		t.Errorf("bins for 0 movable cells = %d, want 4", small.bins)
	}
	// Explicit settings survive normalization untouched, and a grid already
	// derived (a V-cycle level's) is not re-derived.
	set := Options{spreadIters: 3, CGTol: 1e-4, MLCoarsest: 200, bins: 7}
	set.normalize(100)
	if set.spreadIters != 3 || set.CGTol != 1e-4 || set.MLCoarsest != 200 || set.bins != 7 {
		t.Errorf("normalize overwrote explicit options: %+v", set)
	}
}

// samePositions asserts two placements are byte-identical (Float64bits, so
// even a 0 vs -0 difference fails).
func samePositions(t *testing.T, label string, got, want []geom.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cells vs %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i].X) != math.Float64bits(want[i].X) ||
			math.Float64bits(got[i].Y) != math.Float64bits(want[i].Y) {
			t.Fatalf("%s: cell %d at %v, rebuild-every-time path put it at %v", label, i, got[i], want[i])
		}
	}
}

// TestGlobalBuildOnceMatchesRebuild is the reuse refactor's bit-identity
// contract: the build-once/anchor-overlay path must produce byte-identical
// positions to assembling a fresh system before every re-solve, at 1 and 8
// workers.
func TestGlobalBuildOnceMatchesRebuild(t *testing.T) {
	run := func(workers int, rebuild bool) []geom.Point {
		c := detCircuit(t, 500, 60, 41)
		opt := Options{Parallelism: workers}
		opt.rebuildEachSolve = rebuild
		if err := Global(c, opt); err != nil {
			t.Fatal(err)
		}
		return c.Positions()
	}
	for _, workers := range []int{1, 8} {
		want := run(workers, true)
		got := run(workers, false)
		samePositions(t, "Global", got, want)
	}
}

// TestIncrementalBuildOnceMatchesRebuild covers the stage-6 path (stability
// anchors + pseudo-nets + the light equalization re-solve).
func TestIncrementalBuildOnceMatchesRebuild(t *testing.T) {
	run := func(workers int, rebuild bool) []geom.Point {
		c := detCircuit(t, 400, 50, 43)
		if err := Global(c, Options{Parallelism: workers}); err != nil {
			t.Fatal(err)
		}
		var pn []PseudoNet
		for _, ff := range c.FlipFlops() {
			pn = append(pn, PseudoNet{Cell: ff, Target: c.Die.Center(), Weight: 4})
		}
		opt := Options{Parallelism: workers, PseudoNets: pn}
		opt.rebuildEachSolve = rebuild
		if err := incremental(c, opt); err != nil {
			t.Fatal(err)
		}
		return c.Positions()
	}
	for _, workers := range []int{1, 8} {
		want := run(workers, true)
		got := run(workers, false)
		samePositions(t, "Incremental", got, want)
	}
}

// TestSystemReusedAcrossCalls mirrors the flow's threading: one System
// serving a Global call and then repeated Incremental calls must match the
// package-level functions that build a fresh system per call.
func TestSystemReusedAcrossCalls(t *testing.T) {
	pulls := func(c *netlist.Circuit, w float64) []PseudoNet {
		var pn []PseudoNet
		for _, ff := range c.FlipFlops() {
			pn = append(pn, PseudoNet{Cell: ff, Target: geom.Pt(c.Die.Hi.X*0.8, c.Die.Lo.Y+c.Die.H()*0.2), Weight: w})
		}
		return pn
	}

	want := detCircuit(t, 300, 40, 47)
	if err := Global(want, Options{}); err != nil {
		t.Fatal(err)
	}
	for iter := 1; iter <= 3; iter++ {
		if err := incremental(want, Options{PseudoNets: pulls(want, float64(iter))}); err != nil {
			t.Fatal(err)
		}
	}

	got := detCircuit(t, 300, 40, 47)
	sys, err := NewSystem(got, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Global(Options{}); err != nil {
		t.Fatal(err)
	}
	for iter := 1; iter <= 3; iter++ {
		if err := sys.Incremental(Options{PseudoNets: pulls(got, float64(iter))}); err != nil {
			t.Fatal(err)
		}
	}
	samePositions(t, "shared System", got.Positions(), want.Positions())
}

// TestSystemObsCounters locks the build/reuse telemetry: a Global call with
// k spread rounds is one build and k+1 overlay re-solves; each Incremental
// call with pseudo-nets adds two more re-solves on the same build.
func TestSystemObsCounters(t *testing.T) {
	c := detCircuit(t, 200, 30, 53)
	reg := obs.NewRegistry()
	sys, err := NewSystem(c, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Global(Options{spreadIters: 3, Obs: reg}); err != nil {
		t.Fatal(err)
	}
	var pn []PseudoNet
	for _, ff := range c.FlipFlops() {
		pn = append(pn, PseudoNet{Cell: ff, Target: c.Die.Center(), Weight: 2})
	}
	if err := sys.Incremental(Options{PseudoNets: pn, Obs: reg}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counter("placer.system.builds"); got != 1 {
		t.Errorf("placer.system.builds = %d, want 1", got)
	}
	if got := reg.Snapshot().Counter("placer.system.reuses"); got != 6 {
		t.Errorf("placer.system.reuses = %d, want 6 (4 global + 2 incremental)", got)
	}

	// The package-level wrappers build a fresh system per call.
	reg2 := obs.NewRegistry()
	c2 := detCircuit(t, 200, 30, 53)
	if err := Global(c2, Options{spreadIters: 3, Obs: reg2}); err != nil {
		t.Fatal(err)
	}
	if err := incremental(c2, Options{PseudoNets: pn, Obs: reg2}); err != nil {
		t.Fatal(err)
	}
	if got := reg2.Snapshot().Counter("placer.system.builds"); got != 2 {
		t.Errorf("wrapper placer.system.builds = %d, want 2", got)
	}
}

// TestNewSystemInvalidCircuit: the build validates like the solvers do.
func TestNewSystemInvalidCircuit(t *testing.T) {
	c := netlist.New("empty")
	c.AddCell(&netlist.Cell{Name: "a"})
	if _, err := NewSystem(c, nil); err == nil {
		t.Fatal("expected error for empty die")
	}
}

// BenchmarkSystemBuildVsReuse isolates what the reuse refactor saves per
// re-solve: "rebuild" assembles the CSR system from the netlist before the
// overlay, "reuse" only resets and reapplies the overlay on a prebuilt one.
func BenchmarkSystemBuildVsReuse(b *testing.B) {
	c := detCircuit(b, 2000, 200, 7)
	opt := Options{}
	opt.normalize(c.NumMovable())
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys, err := NewSystem(c, nil)
			if err != nil {
				b.Fatal(err)
			}
			sys.prepare(&opt, nil, 0)
		}
	})
	b.Run("reuse", func(b *testing.B) {
		sys, err := NewSystem(c, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.prepare(&opt, nil, 0)
		}
	})
}
