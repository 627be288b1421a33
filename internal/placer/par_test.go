package placer

import (
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
// determinism contract: the parallel CG kernels must produce bit-identical
// placements for every worker count, because chunk boundaries and reduction
// order never depend on it.
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
		if err := Incremental(c, Options{PseudoNets: pn, Parallelism: workers}); err != nil {
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

// BenchmarkCGSolve measures the CG kernel serial vs parallel on one fixed
// system (the placer's dominant cost). Compare the sub-benchmarks to read
// off the parallel speedup on this machine.
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

// BenchmarkCGScratchReuse isolates the scratch-vector reuse: repeated cg
// calls through the pool must not allocate per solve (allocs/op ~ 0 after
// the first iteration warms the pool).
func BenchmarkCGScratchReuse(b *testing.B) {
	c := detCircuit(b, 2000, 200, 7)
	opt := Options{}
	opt.normalize(c.NumMovable())
	sys, err := NewSystem(c, nil)
	if err != nil {
		b.Fatal(err)
	}
	sys.prepare(&opt, nil, 0)
	ws := wsPool.Get().(*solveWS)
	defer wsPool.Put(ws)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.cg(sys.posX, sys.bx, opt.CGTol, 40, 1, &ws.x, nil)
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
