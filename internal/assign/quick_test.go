package assign

// Property tests for candidate-row reuse and the nearest-point fallback.
// The reuse tests assert bit-equality, not tolerance-equality: a reused row
// must carry the very float64s the solver would have produced, or results
// become dependent on which rows a patch happened to keep. The fallback
// tests arm the tapping solver's fault-injection site, so they must not run
// in parallel with other injection tests.

import (
	"errors"
	"math"
	"testing"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/obs"
)

// assertBitEqual asserts two assignments are bit-for-bit identical in every
// floating-point field and identical in every integer field.
func assertBitEqual(t *testing.T, a, b *Assignment) {
	t.Helper()
	bits := func(x float64) uint64 { return math.Float64bits(x) }
	if bits(a.Total) != bits(b.Total) || bits(a.MaxCap) != bits(b.MaxCap) || bits(a.AvgDist) != bits(b.AvgDist) {
		t.Fatalf("summary metrics differ: (%v,%v,%v) vs (%v,%v,%v)",
			a.Total, a.MaxCap, a.AvgDist, b.Total, b.MaxCap, b.AvgDist)
	}
	if len(a.Ring) != len(b.Ring) || len(a.Taps) != len(b.Taps) {
		t.Fatalf("sizes differ: %d/%d rings, %d/%d taps", len(a.Ring), len(b.Ring), len(a.Taps), len(b.Taps))
	}
	for i := range a.Ring {
		if a.Ring[i] != b.Ring[i] {
			t.Fatalf("ff %d assigned to ring %d vs %d", i, a.Ring[i], b.Ring[i])
		}
		ta, tb := a.Taps[i], b.Taps[i]
		if bits(ta.WireLen) != bits(tb.WireLen) || bits(ta.Delay) != bits(tb.Delay) ||
			bits(ta.Point.X) != bits(tb.Point.X) || bits(ta.Point.Y) != bits(tb.Point.Y) {
			t.Fatalf("ff %d taps differ: %+v vs %+v", i, ta, tb)
		}
	}
	for j := range a.Loads {
		if bits(a.Loads[j]) != bits(b.Loads[j]) {
			t.Fatalf("ring %d load differs: %v vs %v", j, a.Loads[j], b.Loads[j])
		}
	}
}

// sameArray is a copy of p's flip-flops over p's ring array, so a patch
// from an assignment of p may reuse its rows.
func sameArray(p *Problem) *Problem {
	return &Problem{Array: p.Array, FFs: append([]FF(nil), p.FFs...), Parallelism: 1}
}

// TestMinCostRowReuseBitEquality edits a solved instance — one flip-flop
// moved, one retargeted — and patches it from the previous answer, reusing
// every other row. The patch must agree to the bit with a cold MinCost of
// the edited instance, and must have solved only the two edited rows.
func TestMinCostRowReuseBitEquality(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		p := testProblem(t, 14, seed)
		p.Parallelism = 1
		prev, err := MinCost(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		edit := func() *Problem {
			q := sameArray(p)
			q.FFs[3].Pos = geom.Pt(q.FFs[3].Pos.X+40, q.FFs[3].Pos.Y-15)
			q.FFs[9].Target += 37
			return q
		}
		cold, err := MinCost(edit())
		if err != nil {
			t.Fatalf("seed %d cold: %v", seed, err)
		}
		reg := obs.NewRegistry()
		q := edit()
		q.Obs = reg
		warm, err := PatchMinCost(q, prev, nil)
		if err != nil {
			t.Fatalf("seed %d patch: %v", seed, err)
		}
		assertBitEqual(t, cold, warm)
		if n := reg.Snapshot().Counter("assign.patch.reused"); n != 12 {
			t.Fatalf("seed %d: reused %d rows, want 12", seed, n)
		}
		if n := reg.Snapshot().Counter("assign.tap.queries"); n < 1 || n > 2*int64(q.K) {
			t.Fatalf("seed %d: %d tap queries for 2 edited flip-flops, want 1..%d", seed, n, 2*q.K)
		}
	}
}

// TestMinMaxCapRowReuseBitEquality: the load-balancing objective keeps the
// same candidate matrix, so an unchanged instance patched from a MinMaxCap
// answer reuses every row, solves nothing, and lands bit-for-bit on the
// cold MinCost optimum.
func TestMinMaxCapRowReuseBitEquality(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := testProblem(t, 12, seed)
		p.Parallelism = 1
		prev, _, err := MinMaxCap(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cold, err := MinCost(sameArray(p))
		if err != nil {
			t.Fatalf("seed %d cold: %v", seed, err)
		}
		reg := obs.NewRegistry()
		q := sameArray(p)
		q.Obs = reg
		warm, err := PatchMinCost(q, prev, nil)
		if err != nil {
			t.Fatalf("seed %d patch: %v", seed, err)
		}
		assertBitEqual(t, cold, warm)
		if n := reg.Snapshot().Counter("assign.tap.queries"); n != 0 {
			t.Fatalf("seed %d: %d tap queries on an unchanged instance, want 0", seed, n)
		}
	}
}

// TestFallbackOnlyOnSolverFailure: with a healthy tapping solver the
// fallback path must never activate, and enabling it must not change the
// result.
func TestFallbackOnlyOnSolverFailure(t *testing.T) {
	p1 := testProblem(t, 12, 3)
	p1.Parallelism = 1
	base, err := MinCost(p1)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Fallbacks) != 0 {
		t.Fatalf("fallbacks used with a healthy solver: %v", base.Fallbacks)
	}
	p2 := testProblem(t, 12, 3)
	p2.Parallelism = 1
	p2.TapFallback = true
	got, err := MinCost(p2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Fallbacks) != 0 {
		t.Fatalf("fallbacks used with a healthy solver and TapFallback on: %v", got.Fallbacks)
	}
	assertBitEqual(t, base, got)
}

// TestFallbackOnTotalSolverFailure fails every tapping solve by fault
// injection: without TapFallback the problem is infeasible; with it, every
// flip-flop lands on the nearest point of its nearest ring and is reported
// in Fallbacks.
func TestFallbackOnTotalSolverFailure(t *testing.T) {
	errTap := errors.New("injected tapping fault")
	restore := faultinject.Enable(faultinject.Rule{Site: faultinject.SiteRotarySolveTap, Err: errTap})
	defer restore()

	p := testProblem(t, 8, 4)
	p.Parallelism = 1
	if _, err := MinCost(p); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible without fallback, got %v", err)
	}

	p = testProblem(t, 8, 4)
	p.Parallelism = 1
	p.TapFallback = true
	// Each flip-flop has exactly one (fallback) candidate, so the default
	// per-ring capacity can clash; lift it out of the way.
	p.Capacity = make([]int, len(p.Array.Rings))
	for j := range p.Capacity {
		p.Capacity[j] = len(p.FFs)
	}
	a, err := MinCost(p)
	if err != nil {
		t.Fatalf("fallback assignment failed: %v", err)
	}
	if len(a.Fallbacks) != len(p.FFs) {
		t.Fatalf("%d of %d flip-flops fell back; with every solve failing all must", len(a.Fallbacks), len(p.FFs))
	}
	for i, ff := range p.FFs {
		r := p.Array.Rings[a.Ring[i]]
		_, pt, dist := r.Nearest(ff.Pos)
		if a.Taps[i].Point != pt {
			t.Errorf("ff %d fallback tap %v is not the nearest ring point %v", i, a.Taps[i].Point, pt)
		}
		if math.Abs(a.Taps[i].WireLen-dist) > 1e-9 {
			t.Errorf("ff %d fallback stub %v != nearest distance %v", i, a.Taps[i].WireLen, dist)
		}
	}
}
