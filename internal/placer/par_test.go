package placer

import (
	"math"
	"runtime/debug"
	"testing"

	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
)

func detCircuit(t testing.TB, cells, ffs int, seed int64) *netlist.Circuit {
	t.Helper()
	c, err := netlist.Generate(netlist.GenSpec{Name: "det", Cells: cells, FlipFlops: ffs, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGlobalDeterministicAcrossWorkerCounts is the placer half of the
// determinism contract: placements must be bit-identical for every worker
// count, because the worker count only decides whether the two serial axis
// solves run concurrently.
func TestGlobalDeterministicAcrossWorkerCounts(t *testing.T) {
	ref := detCircuit(t, 600, 80, 17)
	if err := Global(ref, Options{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	want := ref.Positions()

	for _, workers := range []int{2, 8} {
		c := detCircuit(t, 600, 80, 17)
		if err := Global(c, Options{Parallelism: workers}); err != nil {
			t.Fatal(err)
		}
		got := c.Positions()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: cell %d at %v, serial run put it at %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestIncrementalDeterministicAcrossWorkerCounts covers the stage-6 solve
// path (stability anchors + pseudo-nets) the flow loop runs every iteration.
func TestIncrementalDeterministicAcrossWorkerCounts(t *testing.T) {
	build := func(workers int) []geom.Point {
		c := detCircuit(t, 400, 60, 23)
		if err := Global(c, Options{Parallelism: workers}); err != nil {
			t.Fatal(err)
		}
		ffs := c.FlipFlops()
		pn := make([]PseudoNet, len(ffs))
		for i, id := range ffs {
			pn[i] = PseudoNet{Cell: id, Target: c.Die.Center(), Weight: 4}
		}
		if err := incremental(c, Options{PseudoNets: pn, Parallelism: workers}); err != nil {
			t.Fatal(err)
		}
		return c.Positions()
	}
	want := build(1)
	got := build(8)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d: 8 workers %v, 1 worker %v", i, got[i], want[i])
		}
	}
}

// BenchmarkCGSolve measures one two-axis solve on a fixed system (the
// placer's dominant cost), the axes in turn ("serial") and concurrently
// ("parallel"). Compare the sub-benchmarks to read off what the axis split
// buys on this machine.
func BenchmarkCGSolve(b *testing.B) {
	c := detCircuit(b, 4000, 400, 31)
	run := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			opt := Options{Parallelism: workers}
			opt.normalize(c.NumMovable())
			sys, err := NewSystem(c, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.prepare(&opt, nil, 0)
				ws := wsPool.Get().(*solveWS)
				sys.solve(opt.CGTol, cgMaxIter, workers, ws, nil)
				wsPool.Put(ws)
			}
		}
	}
	b.Run("serial", run(1))
	b.Run("parallel", run(0))
}

// BenchmarkCGScratchReuse times repeated one-lane cg solves on one warm
// workspace, each from a zero start (solving in place from the last
// solution would converge in 0 iterations from the third op on): the kernel
// is serial and its scratch vectors are reused, so allocs/op is 0
// (TestCGAllocationFree holds it there).
func BenchmarkCGScratchReuse(b *testing.B) {
	c := detCircuit(b, 2000, 200, 7)
	opt := Options{}
	opt.normalize(c.NumMovable())
	sys, err := NewSystem(c, nil)
	if err != nil {
		b.Fatal(err)
	}
	sys.prepare(&opt, nil, 0)
	a := spd{diag: sys.diag, rowStart: sys.rowStart, cols: sys.cols, w: sys.wcur}
	ws := wsPool.Get().(*solveWS)
	defer wsPool.Put(ws)
	x := make([]float64, len(sys.diag))
	ws.cg.solve1(a, x, sys.bx, opt.CGTol, 40, nil) // warm the workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(x)
		ws.cg.solve1(a, x, sys.bx, opt.CGTol, 40, nil)
	}
}

// BenchmarkGlobalPlace is the end-to-end placer benchmark, serial vs
// parallel, allocation-reported.
func BenchmarkGlobalPlace(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := detCircuit(b, 2000, 200, 11)
				b.StartTimer()
				if err := Global(c, Options{Parallelism: cfg.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCGAllocationFree: a cg walk on a warm workspace allocates nothing,
// over one lane and over two — the kernel is plain loops over the reused
// scratch vectors.
func TestCGAllocationFree(t *testing.T) {
	c := detCircuit(t, 2000, 200, 7)
	opt := Options{}
	opt.normalize(c.NumMovable())
	sys, err := NewSystem(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.prepare(&opt, nil, 0)
	a := spd{diag: sys.diag, rowStart: sys.rowStart, cols: sys.cols, w: sys.wcur}
	var ws cgScratch
	x := make([]float64, len(sys.diag))
	y := make([]float64, len(sys.diag))
	one := func() {
		clear(x)
		ws.solve1(a, x, sys.bx, opt.CGTol, 40, nil)
	}
	two := func() {
		clear(x)
		clear(y)
		ws.bind(0, x, sys.bx)
		ws.bind(1, y, sys.by)
		a.cg(ws.lanes[:2], opt.CGTol, 40, nil)
	}
	for _, walk := range []struct {
		name string
		run  func()
	}{{"one lane", one}, {"two lanes", two}} {
		walk.run() // warm the workspace
		if allocs := testing.AllocsPerRun(5, walk.run); allocs != 0 {
			t.Errorf("cg over %s on a warm workspace: %v allocations per solve, want 0", walk.name, allocs)
		}
	}
}

// TestGlobalSpreadRoundsAllocateNothing: Global on a warm workspace
// allocates the same at 4 spreading rounds as at 24, so a round (equalize
// plus re-solve) allocates nothing. The collector is off while it counts,
// so the pooled workspace cannot be dropped between runs.
func TestGlobalSpreadRoundsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("-race changes what a call allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	base := detCircuit(t, 1500, 150, 3)
	allocs := func(rounds int) float64 {
		c := base.Clone()
		run := func() {
			if err := Global(c, Options{Parallelism: 1, spreadIters: rounds}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pooled workspace
		return testing.AllocsPerRun(3, run)
	}
	short, long := allocs(4), allocs(24)
	t.Logf("Global allocations: %v at 4 rounds, %v at 24", short, long)
	if long != short {
		t.Errorf("Global allocates %v times at 24 spreading rounds and %v at 4, want the same", long, short)
	}
}

// TestDotBlockOrder pins dot's summation order: blocks of dotBlock products
// summed from zero, the block sums added in order. The values make a plain
// left-to-right sum differ in the last bits, so a kernel that changed the
// order (and with it every solved position) fails here.
func TestDotBlockOrder(t *testing.T) {
	n := 2*dotBlock + 3
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = 1 + float64(i%7)*1e-3
		b[i] = 0.1 * float64(1+i%5)
	}
	a[0], b[0] = 1e16, 1 // a large first term absorbs small ones differently per order
	a[dotBlock], b[dotBlock] = -1e16, 1
	want := 0.0
	for lo := 0; lo < n; lo += dotBlock {
		acc := 0.0
		for i := lo; i < min(lo+dotBlock, n); i++ {
			acc += a[i] * b[i]
		}
		want += acc
	}
	naive := 0.0
	for i := range a {
		naive += a[i] * b[i]
	}
	if math.Float64bits(naive) == math.Float64bits(want) {
		t.Fatalf("test values do not separate the orders: both sum to %.17g", want)
	}
	if got := dot(a, b); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("dot = %.17g, blocked sum %.17g (left-to-right %.17g)", got, want, naive)
	}
}
