package assign

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/rotary"
	"rotaryclk/internal/stop"
)

// TestPatchMinCostMatchesScratch is the patch's optimality contract: warm
// starting from a previous optimum with a few flip-flops perturbed must land
// on the same total cost as a scratch solve of the edited instance.
func TestPatchMinCostMatchesScratch(t *testing.T) {
	p := testProblem(t, 60, 11)
	base, err := MinCost(p)
	if err != nil {
		t.Fatal(err)
	}

	// Edit: move 3 flip-flops across the die.
	edited := testProblem(t, 60, 11)
	edited.Array = p.Array
	moved := []int{5, 17, 42}
	for _, i := range moved {
		edited.FFs[i].Pos = geom.Pt(4000-edited.FFs[i].Pos.X, 4000-edited.FFs[i].Pos.Y)
	}

	scratchP := testProblem(t, 60, 11)
	for _, i := range moved {
		scratchP.FFs[i].Pos = edited.FFs[i].Pos
	}
	want, err := MinCost(scratchP)
	if err != nil {
		t.Fatal(err)
	}

	got, err := PatchMinCost(edited, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Total-want.Total) > 1e-6*math.Max(1, math.Abs(want.Total)) {
		t.Fatalf("patched total %v != scratch total %v", got.Total, want.Total)
	}
	checkAssignment(t, edited, got)
}

// TestPatchMinCostAllClean: an unchanged instance patched from its own
// optimum keeps every flip-flop on its previous ring, so the preload
// leaves no deficit and no augmenting path runs.
func TestPatchMinCostAllClean(t *testing.T) {
	for seed := int64(23); seed < 29; seed++ {
		p := testProblem(t, 200, seed)
		base, err := MinCost(p)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		p2 := testProblem(t, 200, seed)
		p2.Array, p2.Obs = p.Array, reg
		got, err := PatchMinCost(p2, base, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Total != base.Total || !reflect.DeepEqual(got.Ring, base.Ring) {
			t.Fatalf("seed %d: clean patch total %v, rings %v; base %v, %v", seed, got.Total, got.Ring, base.Total, base.Ring)
		}
		if d, paths := reg.Counter("assign.mincost.deficit"), reg.Counter("mcmf.paths"); d != 0 || paths != 0 {
			t.Errorf("seed %d: clean patch left deficit %d and ran %d paths, want 0 and 0", seed, d, paths)
		}
		if kept := reg.Counter("assign.preload.kept"); kept != 200 {
			t.Errorf("seed %d: %d of 200 flip-flops kept on their previous ring", seed, kept)
		}
	}
}

// TestPatchMinCostStalePrior: the patch starts from prev's candidate rows
// and ring prices, not from its rings, so rings that are no longer
// candidates (or out of range) change nothing.
func TestPatchMinCostStalePrior(t *testing.T) {
	p := testProblem(t, 30, 31)
	base, err := MinCost(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MinCost(testProblem(t, 30, 31))
	if err != nil {
		t.Fatal(err)
	}
	prev := *base
	prev.Ring = append([]int(nil), base.Ring...)
	prev.Ring[0] = -1   // no prior
	prev.Ring[1] = 9999 // out of range
	p2 := testProblem(t, 30, 31)
	reg := obs.NewRegistry()
	p2.Array, p2.Obs = p.Array, reg
	got, err := PatchMinCost(p2, &prev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Total-want.Total) > 1e-6 {
		t.Fatalf("total %v != scratch %v", got.Total, want.Total)
	}
	if n := reg.Counter("assign.patch.reused"); n != 30 {
		t.Errorf("reused %d rows, want 30", n)
	}
}

// TestPatchMinCostRespectsPin: pinning a flip-flop to a new ring re-routes
// it there, and the patched cost matches a scratch solve
// with the same pin.
func TestPatchMinCostRespectsPin(t *testing.T) {
	p := testProblem(t, 25, 7)
	base, err := MinCost(p)
	if err != nil {
		t.Fatal(err)
	}
	// Pin FF 3 to a ring it was not on.
	target := (base.Ring[3] + 1) % 9
	pin := make([]int, 25)
	for i := range pin {
		pin[i] = -1
	}
	pin[3] = target

	scratchP := testProblem(t, 25, 7)
	scratchP.Pin = pin
	scratchP.TapFallback = true
	want, err := MinCost(scratchP)
	if err != nil {
		t.Fatal(err)
	}

	p2 := testProblem(t, 25, 7)
	p2.Array = p.Array
	p2.Pin = pin
	p2.TapFallback = true
	got, err := PatchMinCost(p2, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ring[3] != target {
		t.Fatalf("pinned flip-flop on ring %d, want %d", got.Ring[3], target)
	}
	if math.Abs(got.Total-want.Total) > 1e-6*math.Max(1, want.Total) {
		t.Fatalf("total %v != scratch %v", got.Total, want.Total)
	}
}

// TestPatchMinCostCorruptionSite: the assign.patch fault site silently
// degrades the answer without erroring — the failure mode only a
// differential oracle can see.
func TestPatchMinCostCorruptionSite(t *testing.T) {
	p := testProblem(t, 30, 47)
	base, err := MinCost(p)
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.Enable(faultinject.Rule{
		Site: faultinject.SiteAssignPatch, Err: errors.New("corrupt"),
	})()
	p2 := testProblem(t, 30, 47)
	got, err := PatchMinCost(p2, base, nil)
	if err != nil {
		t.Fatalf("corruption must be silent, got error %v", err)
	}
	if got.Total <= base.Total+1e-9 {
		t.Fatalf("corrupted total %v not worse than optimum %v", got.Total, base.Total)
	}
}

// TestPatchMinCostInfeasibleAndStop: capacity shortfalls report
// ErrInfeasible; a fired stop token aborts with a stop error.
func TestPatchMinCostInfeasibleAndStop(t *testing.T) {
	p := testProblem(t, 20, 3)
	base, err := MinCost(p)
	if err != nil {
		t.Fatal(err)
	}

	bad := testProblem(t, 20, 3)
	bad.Array = p.Array
	bad.Capacity = make([]int, 9)
	if _, err := PatchMinCost(bad, base, nil); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("zero capacity: err = %v, want ErrInfeasible", err)
	}

	stopped := testProblem(t, 20, 3)
	stopped.Array = p.Array
	tok, cancel := stop.WithTimeout(-time.Second)
	defer cancel()
	stopped.Stop = tok
	if _, err := PatchMinCost(stopped, base, nil); !stop.IsStop(err) {
		t.Fatalf("expired token: err = %v, want stop error", err)
	}
}

// TestPatchMinCostPrevRingLengthMismatch rejects a previous assignment
// whose rings are out of step with the flip-flops it was solved for, and
// treats a nil one as no prior at all.
func TestPatchMinCostPrevRingLengthMismatch(t *testing.T) {
	base, err := MinCost(testProblem(t, 10, 5))
	if err != nil {
		t.Fatal(err)
	}
	stale := *base
	stale.Ring = stale.Ring[:3]
	if _, err := PatchMinCost(testProblem(t, 10, 5), &stale, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	reg := obs.NewRegistry()
	p := testProblem(t, 10, 5)
	p.Obs = reg
	got, err := PatchMinCost(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBitEqual(t, got, base)
	if n := reg.Counter("assign.patch.reused"); n != 0 {
		t.Errorf("reused %d rows with no prior, want 0", n)
	}
}

// TestPatchReusesUnchangedRows: patching an unchanged instance reuses every
// row, solves no tapping query and returns the previous assignment (its
// exported fields and rows; the ring prices may differ); moving one
// flip-flop re-solves only that flip-flop's row, at most K queries.
func TestPatchReusesUnchangedRows(t *testing.T) {
	p := parProblem(t, 80, 7)
	prev, err := MinCost(p)
	if err != nil {
		t.Fatal(err)
	}
	patch := func(edit func(*Problem)) (*Assignment, *obs.Registry) {
		t.Helper()
		reg := obs.NewRegistry()
		q := parProblem(t, 80, 7)
		q.Array, q.Obs = p.Array, reg
		edit(q)
		a, err := PatchMinCost(q, prev, nil)
		if err != nil {
			t.Fatal(err)
		}
		return a, reg
	}

	same, reg := patch(func(*Problem) {})
	if n := reg.Counter("assign.tap.queries"); n != 0 {
		t.Errorf("unchanged instance solved %d tap queries, want 0", n)
	}
	if n := reg.Counter("assign.patch.reused"); n != 80 {
		t.Errorf("unchanged instance reused %d rows, want 80", n)
	}
	if !reflect.DeepEqual(exported(same), exported(prev)) || !reflect.DeepEqual(same.m.rows, prev.m.rows) {
		t.Error("patch of an unchanged instance differs from the previous assignment")
	}

	_, reg = patch(func(q *Problem) { q.FFs[0].Pos = geom.Pt(q.FFs[0].Pos.X+10, q.FFs[0].Pos.Y) })
	if n := reg.Counter("assign.tap.queries"); n < 1 || n > int64(p.K) {
		t.Errorf("moving one flip-flop solved %d tap queries, want 1..%d", n, p.K)
	}
	if n := reg.Counter("assign.patch.reused"); n != 79 {
		t.Errorf("moving one flip-flop reused %d rows, want 79", n)
	}
}

// exported is a's exported fields, without its candidate matrix and prices.
func exported(a *Assignment) Assignment {
	c := *a
	c.m = nil
	return c
}

// TestPatchReuseNeedsSameInputs: a row is reused only when every input it
// depends on is unchanged. A new pin re-solves that flip-flop's row; a
// different K, TapFallback or ring array re-solves every row.
func TestPatchReuseNeedsSameInputs(t *testing.T) {
	p := parProblem(t, 40, 9)
	prev, err := MinCost(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		edit   func(*Problem)
		reused int64
	}{
		{"unchanged", func(*Problem) {}, 40},
		{"pin", func(q *Problem) {
			q.Pin = make([]int, len(q.FFs))
			for i := range q.Pin {
				q.Pin[i] = -1
			}
			q.Pin[5] = prev.Ring[5]
		}, 39},
		{"K", func(q *Problem) { q.K = 5 }, 0},
		{"TapFallback", func(q *Problem) { q.TapFallback = true }, 0},
		{"array", func(q *Problem) { q.Array = parProblem(t, 1, 1).Array }, 0},
	} {
		reg := obs.NewRegistry()
		q := parProblem(t, 40, 9)
		q.Array, q.Obs = p.Array, reg
		tc.edit(q)
		got, err := PatchMinCost(q, prev, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := reg.Counter("assign.patch.reused"); n != tc.reused {
			t.Errorf("%s: reused %d rows, want %d", tc.name, n, tc.reused)
		}
		cold := *q // the edited instance, normalized by the patch
		cold.Obs = nil
		want, err := MinCost(&cold)
		if err != nil {
			t.Fatalf("%s cold: %v", tc.name, err)
		}
		if math.Abs(got.Total-want.Total) > 1e-6*math.Max(1, want.Total) {
			t.Errorf("%s: patched total %v != cold %v", tc.name, got.Total, want.Total)
		}
	}
}

// TestPinnedCandidatesRestrict: the Pin field restricts a flip-flop's
// candidate row to the pinned ring through the normal MinCost path too.
func TestPinnedCandidatesRestrict(t *testing.T) {
	p := testProblem(t, 15, 13)
	pin := make([]int, 15)
	for i := range pin {
		pin[i] = -1
	}
	pin[7] = 4
	p.Pin = pin
	p.TapFallback = true
	a, err := MinCost(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ring[7] != 4 {
		t.Fatalf("pinned flip-flop assigned ring %d, want 4", a.Ring[7])
	}
	// Bad pin index is rejected by normalize.
	p2 := testProblem(t, 15, 13)
	p2.Pin = []int{0}
	if _, err := MinCost(p2); err == nil {
		t.Fatal("pin length mismatch accepted")
	}
	p3 := testProblem(t, 15, 13)
	p3.Pin = make([]int, 15)
	p3.Pin[0] = 99
	if _, err := MinCost(p3); err == nil {
		t.Fatal("out-of-range pin accepted")
	}
}

// TestPatchAnyPricesMatchesScratch is the price contract of the one Fig. 4
// solver: whatever ring prices it starts from — random, sparse, huge (1e4
// times the largest cost) or stale ones from another instance's solve — the
// answer is cost-equal to the unpriced solve MinCost runs, and with
// distinct float costs (a unique optimum) it puts every flip-flop on the
// same ring.
func TestPatchAnyPricesMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 30; trial++ {
		nFF := 15 + rng.Intn(70)
		p := testProblem(t, nFF, rng.Int63())
		nR := len(p.Array.Rings)
		if trial%3 > 0 {
			p.Capacity = make([]int, nR)
			for j := range p.Capacity {
				p.Capacity[j] = nFF/nR + trial%3
			}
			p.K = 3 + rng.Intn(nR-2)
		}
		cands := preparedCands(t, p)
		want, _, err := p.solveFlow(nil, cands, nil, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		other := testProblem(t, 20+rng.Intn(60), rng.Int63())
		_, stale, err := other.solveFlow(nil, preparedCands(t, other), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		random, sparse, huge := make([]float64, nR), make([]float64, nR), make([]float64, nR)
		for j := 0; j < nR; j++ {
			random[j] = rng.Float64() * 2000
			if rng.Intn(4) == 0 {
				sparse[j] = rng.Float64() * 500
			}
			huge[j] = 1e4 * 4000 * rng.Float64()
		}
		for _, tc := range []struct {
			name  string
			price []float64
		}{{"random", random}, {"sparse", sparse}, {"huge", huge}, {"stale", stale}} {
			name, price := tc.name, tc.price
			got, _, err := p.solveFlow(nil, cands, price, nil)
			if err != nil {
				t.Fatalf("trial %d, %s prices: %v", trial, name, err)
			}
			gotTotal, wantTotal := 0.0, 0.0
			for i := range got {
				gotTotal += got[i].cost
				wantTotal += want[i].cost
			}
			if !relClose(gotTotal, wantTotal) {
				t.Fatalf("trial %d, %s prices: total %v != unpriced %v", trial, name, gotTotal, wantTotal)
			}
			for i := range got {
				if got[i].ring != want[i].ring {
					t.Fatalf("trial %d, %s prices: flip-flop %d on ring %d, unpriced %d", trial, name, i, got[i].ring, want[i].ring)
				}
			}
		}
	}
}

// TestPatchChainMatchesScratch chains 200 patches, each from the previous
// patch's answer and prices, through moves, retargets, pins and unpins,
// capacity changes and added and removed flip-flops, and checks every step
// against a cold MinCost of the same instance: the same feasibility, and
// totals within 1e-9 relative. Every patch runs again in one Workspace
// shared by the whole chain, failed solves included, and must match the
// patch without one bit for bit, ring prices included.
func TestPatchChainMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base := testProblem(t, 50, 43)
	arr, nR := base.Array, len(base.Array.Rings)
	ffs := base.FFs
	pins := map[int]int{} // cell -> pinned ring
	var capacity []int
	nextCell := len(ffs)
	mk := func() *Problem {
		q := &Problem{Array: arr, FFs: append([]FF(nil), ffs...), TapFallback: true, Parallelism: 1}
		q.Capacity = append([]int(nil), capacity...)
		if len(pins) > 0 {
			q.Pin = make([]int, len(ffs))
			for i, ff := range ffs {
				q.Pin[i] = -1
				if r, ok := pins[ff.Cell]; ok {
					q.Pin[i] = r
				}
			}
		}
		return q
	}
	prev, err := MinCost(mk())
	if err != nil {
		t.Fatal(err)
	}
	var paths, deficits int64
	ws := &Workspace{}
	for step := 0; step < 200; step++ {
		i := rng.Intn(len(ffs))
		switch op := rng.Intn(7); op {
		case 0, 1:
			ffs[i].Pos = geom.Pt(rng.Float64()*4000, rng.Float64()*4000)
		case 2:
			ffs[i].Target = rng.Float64() * arr.Params.Period
		case 3:
			if _, ok := pins[ffs[i].Cell]; ok || len(pins) > 4 {
				delete(pins, ffs[i].Cell)
			} else {
				pins[ffs[i].Cell] = rng.Intn(nR)
			}
		case 4:
			capacity = nil
			if rng.Intn(3) > 0 {
				capacity = make([]int, nR)
				for j := range capacity {
					capacity[j] = len(ffs)/nR + 1 + rng.Intn(3)
				}
			}
		case 5:
			ffs = append(ffs, FF{Cell: nextCell, Pos: geom.Pt(rng.Float64()*4000, rng.Float64()*4000), Target: rng.Float64() * arr.Params.Period})
			nextCell++
		case 6:
			delete(pins, ffs[i].Cell)
			ffs = append(ffs[:i:i], ffs[i+1:]...)
		}
		if capacity != nil {
			for sum(capacity) < len(ffs) {
				capacity[rng.Intn(nR)]++
			}
		}
		cold, coldErr := MinCost(mk())
		reg := obs.NewRegistry()
		q := mk()
		q.Obs = reg
		warm, warmErr := PatchMinCost(q, prev, nil)
		if (coldErr != nil) != (warmErr != nil) {
			t.Fatalf("step %d: patch error %v, cold error %v", step, warmErr, coldErr)
		}
		lent, lentErr := PatchMinCost(mk(), prev, ws)
		if fmt.Sprint(lentErr) != fmt.Sprint(warmErr) {
			t.Fatalf("step %d: error %v with a workspace, %v without", step, lentErr, warmErr)
		}
		if warmErr == nil {
			assertBitEqual(t, lent, warm)
			if !slices.Equal(lent.m.price, warm.m.price) {
				t.Fatalf("step %d: prices %v with a workspace, %v without", step, lent.m.price, warm.m.price)
			}
		}
		if coldErr != nil {
			if !errors.Is(coldErr, ErrInfeasible) || !errors.Is(warmErr, ErrInfeasible) {
				t.Fatalf("step %d: errors not both infeasible: %v / %v", step, warmErr, coldErr)
			}
			continue
		}
		if !relClose(warm.Total, cold.Total) {
			t.Fatalf("step %d: patched total %v != cold %v", step, warm.Total, cold.Total)
		}
		checkAssignment(t, q, warm)
		paths += reg.Counter("mcmf.paths")
		deficits += reg.Counter("assign.mincost.deficit")
		prev = warm
	}
	if paths != deficits {
		t.Errorf("%d augmenting paths for a total deficit of %d", paths, deficits)
	}
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// TestPatchChainRetention chains 200 patches of moves and retargets and
// checks the retention bound of DESIGN.md section 21.1: every unchanged
// row is shared with the previous matrix, not copied, and the last
// assignment keeps alive at most the base's arena plus its own re-solved
// rows, two candidate matrices. Re-solved rows held in one arena per patch
// would keep alive every patch that still owns a live row.
func TestPatchChainRetention(t *testing.T) {
	const nFF = 200
	p := testProblem(t, nFF, 47)
	prev, err := MinCost(p)
	if err != nil {
		t.Fatal(err)
	}
	arr, ffs := p.Array, append([]FF(nil), p.FFs...)
	rng := rand.New(rand.NewSource(53))
	for step := 0; step < 200; step++ {
		i := rng.Intn(nFF)
		if rng.Intn(2) == 0 {
			ffs[i].Pos = geom.Pt(rng.Float64()*4000, rng.Float64()*4000)
		} else {
			ffs[i].Target = rng.Float64() * arr.Params.Period
		}
		next, err := PatchMinCost(&Problem{Array: arr, FFs: append([]FF(nil), ffs...)}, prev, nil)
		if err != nil {
			t.Fatal(err)
		}
		for r, row := range next.m.rows {
			if r != i && &row[0] != &prev.m.rows[r][0] {
				t.Fatalf("step %d: unchanged row %d was copied", step, r)
			}
		}
		prev = next
	}
	last := prev
	prev, p = nil, nil
	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	k := last.m.k
	runtime.KeepAlive(last)
	last = nil
	runtime.GC()
	runtime.ReadMemStats(&without)
	// Two matrices, a size-class rounding of at most 1/8 on each re-solved
	// row, and the assignment's own per-flip-flop slices.
	matrix := nFF * k * int(reflect.TypeOf(candidate{}).Size())
	perFF := reflect.TypeOf(rotary.Tap{}).Size() + reflect.TypeOf(FF{}).Size() + 8 + 24
	bound := matrix + matrix*9/8 + nFF*int(perFF) + 4096
	if got := int(with.HeapAlloc) - int(without.HeapAlloc); got > bound {
		t.Errorf("the last of 200 chained patches keeps %d bytes alive, bound %d (one matrix is %d)", got, bound, matrix)
	}
}
