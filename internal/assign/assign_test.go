package assign

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"rotaryclk/internal/geom"
	"rotaryclk/internal/lp"
	"rotaryclk/internal/rotary"
)

func testProblem(t *testing.T, nFF int, seed int64) *Problem {
	t.Helper()
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(4000, 4000))
	arr, err := rotary.NewArray(die, 3, 3, 0.6, rotary.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ffs := make([]FF, nFF)
	for i := range ffs {
		ffs[i] = FF{
			Cell:   i,
			Pos:    geom.Pt(rng.Float64()*4000, rng.Float64()*4000),
			Target: rng.Float64() * arr.Params.Period,
		}
	}
	return &Problem{Array: arr, FFs: ffs}
}

func checkAssignment(t *testing.T, p *Problem, a *Assignment) {
	t.Helper()
	if len(a.Ring) != len(p.FFs) || len(a.Taps) != len(p.FFs) {
		t.Fatalf("assignment sizes wrong: %d rings, %d taps", len(a.Ring), len(a.Taps))
	}
	total, maxCap := 0.0, 0.0
	loads := make([]float64, len(p.Array.Rings))
	for i, r := range a.Ring {
		if r < 0 || r >= len(p.Array.Rings) {
			t.Fatalf("ff %d assigned to ring %d", i, r)
		}
		if a.Taps[i].Ring != r {
			t.Fatalf("ff %d tap ring %d != assignment %d", i, a.Taps[i].Ring, r)
		}
		total += a.Taps[i].WireLen
		loads[r] += p.Array.Params.StubCap(a.Taps[i].WireLen)
	}
	for _, l := range loads {
		maxCap = math.Max(maxCap, l)
	}
	if math.Abs(total-a.Total) > 1e-6 {
		t.Errorf("Total = %v, recomputed %v", a.Total, total)
	}
	if math.Abs(maxCap-a.MaxCap) > 1e-6 {
		t.Errorf("MaxCap = %v, recomputed %v", a.MaxCap, maxCap)
	}
	if math.Abs(a.AvgDist-total/float64(len(p.FFs))) > 1e-6 {
		t.Errorf("AvgDist = %v", a.AvgDist)
	}
}

func TestMinCostBasic(t *testing.T) {
	p := testProblem(t, 40, 1)
	a, err := MinCost(p)
	if err != nil {
		t.Fatal(err)
	}
	checkAssignment(t, p, a)
	// Capacities respected.
	counts := make([]int, len(p.Array.Rings))
	for _, r := range a.Ring {
		counts[r]++
	}
	for j, n := range counts {
		if n > p.Capacity[j] {
			t.Errorf("ring %d holds %d > capacity %d", j, n, p.Capacity[j])
		}
	}
}

func TestMinCostBeatsNearestUnderTightCapacity(t *testing.T) {
	// With capacity 1 per ring and 9 flip-flops clustered in one corner,
	// nearest-ring would overload; min-cost flow must spread them while
	// minimizing total cost.
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(3000, 3000))
	arr, err := rotary.NewArray(die, 3, 3, 0.6, rotary.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	ffs := make([]FF, 9)
	for i := range ffs {
		ffs[i] = FF{Cell: i, Pos: geom.Pt(200+rng.Float64()*400, 200+rng.Float64()*400), Target: 100}
	}
	capacity := make([]int, 9)
	for j := range capacity {
		capacity[j] = 1
	}
	p := &Problem{Array: arr, FFs: ffs, Capacity: capacity, K: 9}
	a, err := MinCost(p)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 9)
	for _, r := range a.Ring {
		counts[r]++
		if counts[r] > 1 {
			t.Fatalf("capacity violated on ring %d", r)
		}
	}
}

func TestMinCostOptimalSmall(t *testing.T) {
	// Cross-check flow optimality against brute force on a tiny instance.
	p := testProblem(t, 6, 3)
	p.K = len(p.Array.Rings)
	capacity := make([]int, len(p.Array.Rings))
	for j := range capacity {
		capacity[j] = 1
	}
	p.Capacity = capacity
	a, err := MinCost(p)
	if err != nil {
		t.Fatal(err)
	}
	cands, _, err := p.candidates(nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	used := make([]bool, len(p.Array.Rings))
	var rec func(i int, acc float64)
	rec = func(i int, acc float64) {
		if acc >= best {
			return
		}
		if i == len(cands) {
			best = acc
			return
		}
		for _, c := range cands[i] {
			if used[c.ring] {
				continue
			}
			used[c.ring] = true
			rec(i+1, acc+c.cost)
			used[c.ring] = false
		}
	}
	rec(0, 0)
	if a.Total > best+1e-6 {
		t.Errorf("flow total %v worse than brute force %v", a.Total, best)
	}
}

func TestMinCostInfeasibleCapacity(t *testing.T) {
	p := testProblem(t, 10, 4)
	p.Capacity = make([]int, 9) // all zero
	if _, err := MinCost(p); err == nil {
		t.Fatal("expected capacity infeasibility")
	}
}

func TestMinMaxCapReducesMaxLoad(t *testing.T) {
	p := testProblem(t, 60, 5)
	flowA, err := MinCost(p)
	if err != nil {
		t.Fatal(err)
	}
	p2 := testProblem(t, 60, 5)
	capA, rel, err := MinMaxCap(p2)
	if err != nil {
		t.Fatal(err)
	}
	checkAssignment(t, p2, capA)
	if capA.MaxCap > flowA.MaxCap*1.05 {
		t.Errorf("min-max-cap (%v) should not exceed min-cost flow's max load (%v)", capA.MaxCap, flowA.MaxCap)
	}
	if rel.IG < 1-1e-9 {
		t.Errorf("integrality gap %v < 1", rel.IG)
	}
	if rel.LPOpt <= 0 {
		t.Errorf("LP optimum %v", rel.LPOpt)
	}
	// Paper Table I: greedy rounding lands within a small constant factor.
	if rel.IG > 3 {
		t.Errorf("integrality gap %v implausibly large", rel.IG)
	}
}

func TestMinMaxCapVsBranchAndBound(t *testing.T) {
	// On a small instance B&B proves the optimum; greedy rounding must be
	// within its own IG of it, and B&B must never be worse than greedy.
	p := testProblem(t, 8, 6)
	p.K = 3
	greedy, rel, err := MinMaxCap(p)
	if err != nil {
		t.Fatal(err)
	}
	p2 := testProblem(t, 8, 6)
	p2.K = 3
	exact, sol, err := MinMaxCapILP(p2, lp.ILPOptions{TimeLimit: 20 * time.Second, MaxNodes: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if exact == nil {
		t.Skip("B&B found no incumbent in budget")
	}
	if sol.Status == lp.ILPOptimal && greedy.MaxCap < exact.MaxCap-1e-6 {
		t.Errorf("greedy (%v) beats proven optimum (%v)?", greedy.MaxCap, exact.MaxCap)
	}
	if exact.MaxCap < rel.LPOpt-1e-6 {
		t.Errorf("ILP optimum %v below LP bound %v", exact.MaxCap, rel.LPOpt)
	}
}

func TestNearestOnlyIsLowerBoundOnCost(t *testing.T) {
	p := testProblem(t, 50, 7)
	nearest, err := NearestOnly(p)
	if err != nil {
		t.Fatal(err)
	}
	p2 := testProblem(t, 50, 7)
	flow, err := MinCost(p2)
	if err != nil {
		t.Fatal(err)
	}
	// Nearest-only ignores capacity, so its total cost lower-bounds any
	// capacitated assignment over the same candidates.
	if flow.Total < nearest.Total-1e-6 {
		t.Errorf("flow total %v below nearest-only bound %v", flow.Total, nearest.Total)
	}
}

func TestFirstFitDecreasing(t *testing.T) {
	p := testProblem(t, 60, 8)
	ffd, err := FirstFitDecreasing(p)
	if err != nil {
		t.Fatal(err)
	}
	checkAssignment(t, p, ffd)
	p2 := testProblem(t, 60, 8)
	nearest, err := NearestOnly(p2)
	if err != nil {
		t.Fatal(err)
	}
	if ffd.MaxCap > nearest.MaxCap+1e-9 {
		t.Errorf("FFD max cap %v worse than nearest-only %v", ffd.MaxCap, nearest.MaxCap)
	}
}

// TestFirstFitDecreasingFingerprint pins the rings FirstFitDecreasing
// picks on a generic instance and on one whose flip-flops share six
// positions each, so that the lightest-load order's ties fall to the
// index tie-break.
func TestFirstFitDecreasingFingerprint(t *testing.T) {
	tied := testProblem(t, 300, 72)
	for i := range tied.FFs {
		tied.FFs[i].Pos, tied.FFs[i].Target = tied.FFs[i%50].Pos, tied.FFs[i%50].Target
	}
	for _, tc := range []struct {
		name string
		p    *Problem
		want string
	}{
		{"generic", testProblem(t, 400, 71), "430e5ecbbca709edacb941250f25bbda0040b46f5fec0dfcf7ecccbd76783220"},
		{"tied", tied, "1cfeb7a679024d14886369bf789189c5898f37500a57811644d44be81440ffa5"},
	} {
		a, err := FirstFitDecreasing(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(a.Ring)))); got != tc.want {
			t.Errorf("%s: ring digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestProblemValidation(t *testing.T) {
	if _, err := MinCost(&Problem{}); err == nil {
		t.Error("empty problem accepted")
	}
	p := testProblem(t, 5, 9)
	p.Capacity = []int{1, 2} // wrong length
	if _, err := MinCost(p); err == nil {
		t.Error("mismatched capacities accepted")
	}
	p2 := testProblem(t, 5, 10)
	p2.Capacity = make([]int, 9)
	p2.Capacity[0] = -1
	if _, err := MinCost(p2); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestDeterminism(t *testing.T) {
	a1, err := MinCost(testProblem(t, 30, 11))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := MinCost(testProblem(t, 30, 11))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.Ring {
		if a1.Ring[i] != a2.Ring[i] {
			t.Fatalf("assignment differs at ff %d", i)
		}
	}
	b1, _, err := MinMaxCap(testProblem(t, 30, 11))
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := MinMaxCap(testProblem(t, 30, 11))
	if err != nil {
		t.Fatal(err)
	}
	for i := range b1.Ring {
		if b1.Ring[i] != b2.Ring[i] {
			t.Fatalf("min-max assignment differs at ff %d", i)
		}
	}
}

// TestMinMaxCapBruteForce checks the LP+rounding heuristic against complete
// enumeration on instances small enough to enumerate: the heuristic may be
// suboptimal (it is a heuristic) but must stay within its own reported IG of
// the true optimum, and never beat it.
func TestMinMaxCapBruteForce(t *testing.T) {
	for seed := int64(40); seed < 46; seed++ {
		p := testProblem(t, 7, seed)
		p.K = 3
		a, rel, err := MinMaxCap(p)
		if err != nil {
			t.Fatal(err)
		}
		cands, _, err := p.candidates(nil, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		// Enumerate all assignments over the candidate arcs.
		best := math.Inf(1)
		loads := make([]float64, len(p.Array.Rings))
		var rec func(i int, worst float64)
		rec = func(i int, worst float64) {
			if worst >= best {
				return
			}
			if i == len(cands) {
				best = worst
				return
			}
			for _, c := range cands[i] {
				loads[c.ring] += c.cap
				w := worst
				if loads[c.ring] > w {
					w = loads[c.ring]
				}
				rec(i+1, w)
				loads[c.ring] -= c.cap
			}
		}
		rec(0, 0)
		if a.MaxCap < best-1e-6 {
			t.Fatalf("seed %d: heuristic %v beats enumerated optimum %v", seed, a.MaxCap, best)
		}
		if best < rel.LPOpt-1e-6 {
			t.Fatalf("seed %d: optimum %v below LP bound %v", seed, best, rel.LPOpt)
		}
		// The paper's observation: greedy rounding lands close; allow 2x.
		if a.MaxCap > best*2+1e-9 {
			t.Errorf("seed %d: heuristic %v far from optimum %v", seed, a.MaxCap, best)
		}
	}
}
