// Package oracle is the differential-testing backstop of the flow: small,
// obviously-correct reference implementations and metamorphic invariants
// cross-checking the production solvers, plus a seeded random-instance
// campaign runner with automatic shrinking.
//
// Three layers (DESIGN.md section 11):
//
//   - Reference oracles: exhaustive or dense re-solves of tiny instances —
//     brute-force FF→ring enumeration against assign.MinCost/MinMaxCap, a
//     dense 1-D delay scan against rotary.SolveTap, Karp's minimum cycle
//     mean against skew.MaxSlack, and a dense Gaussian elimination against
//     the placer's CG/CSR System. Each reference is
//     deliberately slow and structurally unlike the production solver; the
//     checks are asymmetric where the feasible sets may differ (a reference
//     that misses a solution never indicts the solver, a solver that misses
//     a reference-verified solution always does).
//
//   - Metamorphic invariants: transformations of whole instances with known
//     effect on the optimum — translation (full core.Run), compensated
//     geometric scaling, index permutation, capacity tightening — checked
//     without any reference solve.
//
//   - Campaign: TestCampaign drives seeds 1-200 from these generators
//     through every oracle; a failing instance is greedily shrunk (drop FFs,
//     rings, pairs, nets while the violation persists) and the minimized
//     instance is written as a JSON repro under testdata/repros/.
//
// The package never panics on generated instances; reference solves that
// exceed their node budgets skip the comparison rather than guessing.
package oracle

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rotaryclk/internal/geom"
	"rotaryclk/internal/skew"
)

// Violation is one oracle failure: a named check that observed the
// production solver disagreeing with its reference or invariant.
type Violation struct {
	Oracle string // check name, e.g. "assign/mincost"
	Seed   int64  // campaign seed that produced the instance
	Detail string // human-readable discrepancy
}

func (v Violation) Error() string {
	return fmt.Sprintf("oracle %s (seed %d): %s", v.Oracle, v.Seed, v.Detail)
}

// violationf builds a one-element violation slice; checks return nil when
// they pass, so call sites stay one-liners.
func violationf(oracle string, seed int64, format string, args ...any) []Violation {
	return []Violation{{Oracle: oracle, Seed: seed, Detail: fmt.Sprintf(format, args...)}}
}

// closeRel reports |a-b| <= absTol + relTol*max(|a|,|b|). NaN on either
// side never compares close.
func closeRel(a, b, relTol, absTol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= absTol+relTol*m
}

// modDist returns the distance between a and b on the circle of
// circumference T (both interpreted modulo T).
func modDist(a, b, T float64) float64 {
	d := math.Mod(a-b, T)
	if d < 0 {
		d += T
	}
	return math.Min(d, T-d)
}

func TestCloseRel(t *testing.T) {
	cases := []struct {
		a, b, rel, abs float64
		want           bool
	}{
		{1, 1, 0, 0, true},
		{1, 1 + 1e-10, 1e-9, 0, true},
		{1, 1 + 1e-8, 1e-9, 0, false},
		{0, 1e-10, 0, 1e-9, true},
		{1e9, 1e9 * (1 + 1e-10), 1e-9, 0, true},
		{math.NaN(), 1, 1, 1, false},
		{1, math.NaN(), 1, 1, false},
	}
	for _, c := range cases {
		if got := closeRel(c.a, c.b, c.rel, c.abs); got != c.want {
			t.Errorf("closeRel(%g, %g, %g, %g) = %v, want %v", c.a, c.b, c.rel, c.abs, got, c.want)
		}
	}
}

func TestBruteMinCostHandcrafted(t *testing.T) {
	// Two FFs, two rings, capacity 1 each: the greedy pick (FF0 on ring 0 at
	// cost 1) forces FF1 to its expensive arc; the optimum crosses over.
	arcs := [][]arc{
		{{ring: 0, cost: 1}, {ring: 1, cost: 5}},
		{{ring: 0, cost: 2}, {ring: 1, cost: 3}},
	}
	best, ok, hit := bruteMinCost(arcs, []int{1, 1})
	if !ok || hit {
		t.Fatalf("bruteMinCost ok=%v budgetHit=%v", ok, hit)
	}
	if best != 4 {
		t.Errorf("optimum %g, want 4 (cross assignment)", best)
	}
	// Capacity 0 on both rings: provably infeasible.
	_, ok, hit = bruteMinCost(arcs, []int{0, 0})
	if ok || hit {
		t.Errorf("want infeasible without budget hit, got ok=%v hit=%v", ok, hit)
	}
}

func TestBruteMinMaxCapHandcrafted(t *testing.T) {
	// Three FFs, two rings, unit caps: balancing 2/1 gives max load 2.
	arcs := [][]arc{
		{{ring: 0, cap: 1}, {ring: 1, cap: 1}},
		{{ring: 0, cap: 1}, {ring: 1, cap: 1}},
		{{ring: 0, cap: 1}, {ring: 1, cap: 1}},
	}
	best, ok, hit := bruteMinMaxCap(arcs, 2)
	if !ok || hit {
		t.Fatalf("bruteMinMaxCap ok=%v budgetHit=%v", ok, hit)
	}
	if best != 2 {
		t.Errorf("optimum %g, want 2", best)
	}
}

func TestRefFeasible(t *testing.T) {
	// x0 - x1 <= -1, x1 - x0 <= -1 is a classic negative cycle.
	bad := []skew.DiffConstraint{{U: 0, V: 1, Bound: -1}, {U: 1, V: 0, Bound: -1}}
	if _, ok := refFeasible(2, bad); ok {
		t.Error("negative cycle reported feasible")
	}
	good := []skew.DiffConstraint{{U: 0, V: 1, Bound: -1}, {U: 1, V: 0, Bound: 3}}
	dist, ok := refFeasible(2, good)
	if !ok {
		t.Fatal("feasible system reported infeasible")
	}
	for _, c := range good {
		if dist[c.U]-dist[c.V] > c.Bound+1e-9 {
			t.Errorf("certificate violates %d-%d <= %g", c.U, c.V, c.Bound)
		}
	}
}

func TestGaussSolve(t *testing.T) {
	A := [][]float64{{4, 1}, {1, 3}}
	b := []float64{1, 2}
	x, ok := gaussSolve(A, b)
	if !ok {
		t.Fatal("well-conditioned system reported singular")
	}
	want := []float64{1.0 / 11, 7.0 / 11}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %.15g, want %.15g", i, x[i], want[i])
		}
	}
	if _, ok := gaussSolve([][]float64{{1, 1}, {1, 1}}, []float64{1, 2}); ok {
		t.Error("singular system solved")
	}
}

// TestScanTapAgainstSolver cross-validates the dense scan against the
// production tapping solver over many random single-ring queries; this is
// CheckTap run directly, outside the campaign.
func TestScanTapAgainstSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		in := genTap(rng)
		if vs := CheckTap(in, int64(i)); len(vs) > 0 {
			t.Fatalf("iteration %d: %v (instance %+v)", i, &vs[0], in)
		}
	}
}

func TestWriteReproRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := &Repro{
		Oracle: "assign/mincost",
		Seed:   17,
		Detail: "solver total 3 != exhaustive optimum 2",
		Assign: &AssignInstance{
			Rings: []RingSpec{{Center: geom.Pt(100, 100), Side: 300, Dir: 1}},
			FFs:   []FFSpec{{Pos: geom.Pt(50, 50), Target: 125}},
			K:     3,
		},
	}
	path, err := WriteRepro(dir, r)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "assign-mincost-seed17.json" {
		t.Errorf("unexpected repro name %q", filepath.Base(path))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Repro
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("repro does not parse: %v", err)
	}
	if back.Oracle != r.Oracle || back.Seed != r.Seed || len(back.Assign.FFs) != 1 {
		t.Errorf("round trip mismatch: %+v", back)
	}
}

// TestMetamorphicHandcrafted pins the metamorphic checks on one fixed
// instance so a regression in the checks themselves (not the solvers)
// fails deterministically.
func TestMetamorphicHandcrafted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := genAssign(rng)
	if vs := CheckScale(in, 5); len(vs) > 0 {
		t.Errorf("CheckScale: %v", &vs[0])
	}
	perm := rng.Perm(len(in.FFs))
	if vs := CheckPermute(in, perm, 5); len(vs) > 0 {
		t.Errorf("CheckPermute: %v", &vs[0])
	}
	if vs := CheckTighten(in, 5); len(vs) > 0 {
		t.Errorf("CheckTighten: %v", &vs[0])
	}
}

// TestCheckAssignLPClean runs the sparse-vs-dense LP cross-check directly on
// both generator arms: the small instances the brute-force oracles also see,
// and the large sparse instances only this check scales to.
func TestCheckAssignLPClean(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 15; i++ {
		in := genAssign(rng)
		if vs := CheckAssignLP(in, int64(i)); len(vs) > 0 {
			t.Errorf("small instance %d: %v", i, vs[0].Error())
		}
	}
	for i := 0; i < 4; i++ {
		in := genAssignLarge(rng)
		if vs := CheckAssignLP(in, int64(100+i)); len(vs) > 0 {
			t.Errorf("large instance %d (%d FFs, %d rings): %v",
				i, len(in.FFs), len(in.Rings), vs[0].Error())
		}
	}
}
