package assign

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/obs"
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

	// Edit: move 3 flip-flops across the die and mark them dirty.
	edited := testProblem(t, 60, 11)
	dirty := []int{5, 17, 42}
	for _, i := range dirty {
		edited.FFs[i].Pos = geom.Pt(4000-edited.FFs[i].Pos.X, 4000-edited.FFs[i].Pos.Y)
	}

	scratchP := testProblem(t, 60, 11)
	for _, i := range dirty {
		scratchP.FFs[i].Pos = edited.FFs[i].Pos
	}
	want, err := MinCost(scratchP)
	if err != nil {
		t.Fatal(err)
	}

	got, err := PatchMinCost(edited, base, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Total-want.Total) > 1e-6*math.Max(1, math.Abs(want.Total)) {
		t.Fatalf("patched total %v != scratch total %v", got.Total, want.Total)
	}
	checkAssignment(t, edited, got)
}

// TestPatchMinCostAllClean: no dirty flip-flops and an unchanged instance is
// pure preload — zero augmentations, and the exact previous totals.
func TestPatchMinCostAllClean(t *testing.T) {
	p := testProblem(t, 40, 23)
	base, err := MinCost(p)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	p2 := testProblem(t, 40, 23)
	p2.Obs = reg
	got, err := PatchMinCost(p2, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Total-base.Total) > 1e-9 {
		t.Fatalf("clean patch total %v != base %v", got.Total, base.Total)
	}
	if n := reg.Counter("assign.patch.preloaded"); n != 40 {
		t.Errorf("preloaded = %d, want 40", n)
	}
	if n := reg.Counter("assign.patch.dirty"); n != 0 {
		t.Errorf("dirty = %d, want 0", n)
	}
}

// TestPatchMinCostStalePrior: a clean flip-flop whose previous ring is no
// longer among its candidates (or out of range) silently demotes to dirty.
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
	p2.Obs = reg
	got, err := PatchMinCost(p2, &prev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Total-want.Total) > 1e-6 {
		t.Fatalf("total %v != scratch %v", got.Total, want.Total)
	}
	if n := reg.Counter("assign.patch.dirty"); n != 2 {
		t.Errorf("dirty = %d, want 2", n)
	}
}

// TestPatchMinCostRespectsPin: pinning a flip-flop to a new ring and marking
// it dirty re-routes it there, and the patched cost matches a scratch solve
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
	p2.Pin = pin
	p2.TapFallback = true
	got, err := PatchMinCost(p2, base, []int{3})
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
	bad.Capacity = make([]int, 9)
	if _, err := PatchMinCost(bad, base, nil); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("zero capacity: err = %v, want ErrInfeasible", err)
	}

	stopped := testProblem(t, 20, 3)
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
	if math.Abs(got.Total-base.Total) > 1e-6 {
		t.Fatalf("patch with no prior: total %v != scratch %v", got.Total, base.Total)
	}
	if n := reg.Counter("assign.patch.preloaded"); n != 0 {
		t.Errorf("preloaded = %d with no prior, want 0", n)
	}
}

// TestPatchReusesUnchangedRows: patching an unchanged instance reuses every
// row, solves no tapping query and returns the previous assignment; moving
// one flip-flop re-solves only that flip-flop's row, at most K queries.
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
	if !reflect.DeepEqual(same, prev) {
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

// TestPatchReuseNeedsSameInputs: a row is reused only when every input it
// depends on is unchanged. A new pin re-solves that flip-flop's row; a
// different K, TapFallback, MaxStub or ring array re-solves every row.
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
		{"MaxStub", func(q *Problem) { q.MaxStub = 1e6 }, 0},
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
