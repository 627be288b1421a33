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
	"reflect"
	"slices"
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

// TestColdSolveWithPrevBitEquality: a cold MinCost or MinMaxCap given the
// assignment it replaces (Problem.Prev) answers bit for bit as one given
// none, matrix included, whatever changed: nothing, a moved, retargeted or
// newly pinned flip-flop, the flip-flop order, TapFallback, or K, from a
// default solve to the first ladder rung and back. It takes over exactly
// the rows whose inputs are unchanged (assign.rows.reused), and the
// nearest-ring list of a flip-flop that kept its position, pin and K.
func TestColdSolveWithPrevBitEquality(t *testing.T) {
	const n = 20
	rung := Ladder(n, 9)[0]
	solvers := []struct {
		name  string
		solve func(*Problem) (*Assignment, error)
	}{
		{"mincost", MinCost},
		{"minmaxcap", func(p *Problem) (*Assignment, error) {
			a, _, err := MinMaxCap(p)
			return a, err
		}},
	}
	for seed := int64(1); seed <= 6; seed++ {
		base := testProblem(t, n, seed)
		base.Parallelism = 1
		prev, err := MinCost(base)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		atRung, err := MinCost(&Problem{Array: base.Array, FFs: append([]FF(nil), base.FFs...), K: rung.K, Capacity: rung.Capacity, Prev: prev})
		if err != nil {
			t.Fatalf("seed %d rung: %v", seed, err)
		}
		for _, tc := range []struct {
			name       string
			prev       *Assignment
			edit       func(*Problem)
			reused     int64
			nearShared []int // flip-flops whose nearest-ring list is prev's
		}{
			{"unchanged", prev, func(*Problem) {}, n, []int{0, 7, 19}},
			{"moved", prev, func(q *Problem) { q.FFs[3].Pos.X += 40 }, n - 1, []int{2, 4}},
			{"retargeted", prev, func(q *Problem) { q.FFs[9].Target += 37 }, n - 1, []int{9}},
			{"pinned", prev, func(q *Problem) {
				q.Pin = make([]int, n)
				for i := range q.Pin {
					q.Pin[i] = -1
				}
				q.Pin[5] = (prev.Ring[5] + 1) % 9
			}, n - 1, []int{4}},
			{"reordered", prev, func(q *Problem) { slices.Reverse(q.FFs) }, n, []int{0, 19}},
			{"fallback", prev, func(q *Problem) { q.TapFallback = true }, 0, []int{0, 19}},
			{"to-rung", prev, func(q *Problem) { q.K, q.Capacity = rung.K, rung.Capacity }, 0, nil},
			{"from-rung", atRung, func(*Problem) {}, 0, nil},
			{"rung-to-rung", atRung, func(q *Problem) { q.K, q.Capacity = rung.K, rung.Capacity }, n, []int{0, 19}},
		} {
			for _, s := range solvers {
				edited := func() *Problem {
					q := sameArray(base)
					tc.edit(q)
					return q
				}
				cold, err := s.solve(edited())
				if err != nil {
					t.Fatalf("seed %d %s %s cold: %v", seed, tc.name, s.name, err)
				}
				reg := obs.NewRegistry()
				q := edited()
				q.Prev, q.Obs = tc.prev, reg
				warm, err := s.solve(q)
				if err != nil {
					t.Fatalf("seed %d %s %s warm: %v", seed, tc.name, s.name, err)
				}
				assertBitEqual(t, cold, warm)
				if !reflect.DeepEqual(exported(cold), exported(warm)) || !reflect.DeepEqual(cold.m.rows, warm.m.rows) || !reflect.DeepEqual(cold.m.near, warm.m.near) {
					t.Fatalf("seed %d %s %s: the solve given Prev differs from the one without", seed, tc.name, s.name)
				}
				if got := reg.Snapshot().Counter("assign.rows.reused"); got != tc.reused {
					t.Errorf("seed %d %s %s: reused %d rows, want %d", seed, tc.name, s.name, got, tc.reused)
				}
				for _, i := range tc.nearShared {
					j := slices.IndexFunc(tc.prev.m.ffs, func(ff FF) bool { return ff.Cell == q.FFs[i].Cell })
					if &warm.m.near[i][0] != &tc.prev.m.near[j][0] {
						t.Errorf("seed %d %s %s: flip-flop %d solved its nearest rings again", seed, tc.name, s.name, i)
					}
				}
			}
		}
	}
}
