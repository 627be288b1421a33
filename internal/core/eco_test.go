package core

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"rotaryclk/internal/eco"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
)

// TestApplyECORoundTrip captures a completed run as ECO state, absorbs one
// flip-flop move, and checks the outcome carries re-measured metrics for the
// edited design.
func TestApplyECORoundTrip(t *testing.T) {
	c := genCircuit(t, 80, 12, 5)
	cfg := Config{NumRings: 4, MaxIters: 2, Parallelism: 1}
	res, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("base run degraded: %v", res.Events)
	}
	st, err := NewECOState(c, cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	id := res.FFCells[0]
	mid := geom.Pt(
		c.Die.Lo.X+c.Die.W()/2,
		c.Die.Lo.Y+c.Die.H()/2,
	)
	out, err := ApplyECO(st, []eco.Delta{{Op: eco.OpMoveFF, Cell: id, X: mid.X, Y: mid.Y}}, cfg, eco.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Outcome.Degraded {
		t.Fatalf("edit degraded: %v", out.Outcome.Events)
	}
	if out.Outcome.Deltas != 1 || out.Outcome.NoOps != 0 {
		t.Errorf("applied %d deltas, %d noops, want 1/0", out.Outcome.Deltas, out.Outcome.NoOps)
	}
	if p := c.Cells[id].Pos; p != mid {
		t.Errorf("flip-flop %d at %v, want %v", id, p, mid)
	}
	if out.Final.TotalWL <= 0 || out.Final.TapWL <= 0 {
		t.Errorf("final metrics not re-measured: %+v", out.Final)
	}
	if st.Assign == nil || st.Assign.Total != out.Outcome.Total {
		t.Errorf("state assignment out of step with outcome")
	}
}

// TestNewECOStateRejectsIncomplete pins the seeding contract: only a
// completed result with a consistent assignment can become ECO state.
func TestNewECOStateRejectsIncomplete(t *testing.T) {
	c := genCircuit(t, 80, 12, 5)
	cfg := Config{NumRings: 4, MaxIters: 2, Parallelism: 1}
	res, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := NewECOState(c, cfg, nil); err == nil ||
		!strings.Contains(err.Error(), "completed result") {
		t.Errorf("nil result: err = %v", err)
	}

	noAsg := *res
	noAsg.Assign = nil
	if _, err := NewECOState(c, cfg, &noAsg); err == nil ||
		!strings.Contains(err.Error(), "completed result") {
		t.Errorf("missing assignment: err = %v", err)
	}

	skewed := *res
	skewed.Schedule = res.Schedule[:len(res.Schedule)-1]
	if _, err := NewECOState(c, cfg, &skewed); err == nil ||
		!strings.Contains(err.Error(), "out of step") {
		t.Errorf("truncated schedule: err = %v", err)
	}
}

// TestApplyECOAllocBudget bounds what one incremental edit allocates: the
// mean of runtime.MemStats.TotalAlloc over 100 single-delta ApplyECO edits
// on the 3k base of BenchmarkApplyECO, drawn as it draws them, the first
// edit (which fills the state's workspace) included and the draws outside
// the measurement. Measured at 205 KiB per edit (2-core x86, Go 1.24); the
// bound is 300 KiB. An edit that rebuilt a design-sized buffer, such as the
// Fig. 4 network (about 100 KB here), the sequential pairs or their
// constraints, would cross it.
func TestApplyECOAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("-race changes what an edit allocates")
	}
	const edits = 100
	c, cfg, res := allocBase(t)
	st, err := NewECOState(c.Clone(), cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var before, after runtime.MemStats
	total := uint64(0)
	for e := 0; e < edits; e++ {
		ds := eco.RandomDeltas(rng, st.Circuit, len(st.Array.Rings), 1)
		runtime.ReadMemStats(&before)
		out, err := ApplyECO(st, ds, cfg, eco.Options{})
		runtime.ReadMemStats(&after)
		if err != nil || out.Outcome.Degraded {
			t.Fatalf("edit %d %v: %v", e, ds, err)
		}
		total += after.TotalAlloc - before.TotalAlloc
	}
	mean := total / edits
	t.Logf("%d bytes per edit over %d edits, bound %d", mean, edits, editAllocBound)
	if mean > editAllocBound {
		t.Errorf("an edit allocates %d bytes on average, bound %d", mean, editAllocBound)
	}
}

// editAllocBound is the mean bytes a warm incremental edit may allocate on
// allocBase's design.
const editAllocBound = 300 << 10

// allocBase is the placed 3k base of BenchmarkApplyECO and the allocation
// budget tests.
func allocBase(t *testing.T) (*netlist.Circuit, Config, *Result) {
	t.Helper()
	c, err := netlist.Generate(netlist.GenSpec{Name: "eco-base", Cells: 3000, FlipFlops: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{NumRings: 16, MaxIters: 2}
	res, err := Run(c, cfg)
	if err != nil || res.Degraded {
		t.Fatalf("base flow: %v", err)
	}
	return c, cfg, res
}

// TestOwnedForkRequestAllocBudget bounds everything a /v1/eco request
// allocates on the serving path: one fork of the base state, owned for its
// whole life, takes 20 single-delta RandomDeltas requests, each an
// ApplyECO and then a Revert that returns the fork to the base. The first
// request also forks the base (a clone of its circuit and the system
// built from it) and fills the fork's workspace; the mean over the other
// nineteen, with no clone, no system build and no workspace fill in
// them, must stay within TestApplyECOAllocBudget's bound.
func TestOwnedForkRequestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("-race changes what an edit allocates")
	}
	const requests = 20
	c, cfg, res := allocBase(t)
	base, err := NewECOState(c, cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var before, after runtime.MemStats
	var f *eco.State
	var first, total uint64
	for i := 0; i < requests; i++ {
		ds := eco.RandomDeltas(rng, base.Circuit, len(base.Array.Rings), 1)
		runtime.ReadMemStats(&before)
		if f == nil {
			if f, err = base.Fork(); err != nil {
				t.Fatal(err)
			}
		}
		out, err := ApplyECO(f, ds, cfg, eco.Options{})
		if err != nil || out.Outcome.Degraded {
			t.Fatalf("request %d, edit %v: %v", i, ds, err)
		}
		out.Outcome.Revert()
		runtime.ReadMemStats(&after)
		if i == 0 {
			first = after.TotalAlloc - before.TotalAlloc
		} else {
			total += after.TotalAlloc - before.TotalAlloc
		}
	}
	mean := total / (requests - 1)
	t.Logf("first request (fork with its clone and system, and workspace fill included): %d bytes; later requests %d on average; bound %d", first, mean, editAllocBound)
	if mean > editAllocBound {
		t.Errorf("a request on an owned fork allocates %d bytes on average, bound %d", mean, editAllocBound)
	}
}

// BenchmarkApplyECO times single-delta core.ApplyECO edits on a placed base
// with 10% flip-flops: 3k is the 3,000-cell / 16-ring design the end-to-end
// eco benchmark edits, 20k a 20,000-cell / 36-ring one, so the two ns/op
// show how an edit's cost grows with the design. Each sequence of 100 edits
// starts from a fresh ECO state over a clone of the base, built untimed
// with both caches; drawing the deltas is outside the timer too, so ns/op
// and allocs/op are those of one incremental edit, and paths/op its
// augmenting paths in the Fig. 4 patch (mcmf.paths).
func BenchmarkApplyECO(b *testing.B) {
	for _, size := range []struct {
		name         string
		cells, rings int
	}{{"3k", 3000, 16}, {"20k", 20000, 36}} {
		var c *netlist.Circuit
		var res *Result
		cfg := Config{NumRings: size.rings, MaxIters: 2}
		b.Run(size.name, func(b *testing.B) {
			if res == nil {
				var err error
				c, err = netlist.Generate(netlist.GenSpec{Name: "eco-base", Cells: size.cells, FlipFlops: size.cells / 10, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if res, err = Run(c, cfg); err != nil || res.Degraded {
					b.Fatalf("base flow: %v", err)
				}
			}
			rng := rand.New(rand.NewSource(1))
			var st *eco.State
			var reg *obs.Registry
			var paths int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if i%100 == 0 {
					var err error
					if st, err = NewECOState(c.Clone(), cfg, res); err != nil {
						b.Fatal(err)
					}
					paths += reg.Snapshot().Counter("mcmf.paths")
					reg = obs.NewRegistry()
				}
				ds := eco.RandomDeltas(rng, st.Circuit, len(st.Array.Rings), 1)
				b.StartTimer()
				if _, err := ApplyECO(st, ds, cfg, eco.Options{Obs: reg}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			paths += reg.Snapshot().Counter("mcmf.paths")
			b.ReportMetric(float64(paths)/float64(b.N), "paths/op")
		})
	}
}
