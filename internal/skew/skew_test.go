package skew

import (
	"math"
	"math/rand"
	"testing"

	"rotaryclk/internal/lp"
	"rotaryclk/internal/obs"
)

func TestConstraintsExpansion(t *testing.T) {
	pairs := []SeqPair{{U: 0, V: 1, DMax: 400, DMin: 100}}
	cons := Constraints(nil, pairs, 1000, 10, 30, 15)
	if len(cons) != 2 {
		t.Fatalf("cons = %+v", cons)
	}
	// Long path: t0 - t1 <= 1000 - 400 - 30 - 10 = 560.
	if cons[0].U != 0 || cons[0].V != 1 || math.Abs(cons[0].Bound-560) > 1e-9 {
		t.Errorf("long path = %+v", cons[0])
	}
	// Short path: t1 - t0 <= 100 - 15 - 10 = 75.
	if cons[1].U != 1 || cons[1].V != 0 || math.Abs(cons[1].Bound-75) > 1e-9 {
		t.Errorf("short path = %+v", cons[1])
	}
}

func TestFeasibleSimple(t *testing.T) {
	cons := []DiffConstraint{
		{U: 0, V: 1, Bound: 5},  // t0 - t1 <= 5
		{U: 1, V: 0, Bound: -2}, // t1 - t0 <= -2 => t0 >= t1 + 2
	}
	tt, ok := Feasible(2, cons)
	if !ok {
		t.Fatal("feasible system reported infeasible")
	}
	if v := Verify(tt, cons); v > 1e-9 {
		t.Errorf("violation %v", v)
	}
	d := tt[0] - tt[1]
	if d < 2-1e-9 || d > 5+1e-9 {
		t.Errorf("t0-t1 = %v outside [2,5]", d)
	}
}

func TestFeasibleInfeasible(t *testing.T) {
	cons := []DiffConstraint{
		{U: 0, V: 1, Bound: -3}, // t0 <= t1 - 3
		{U: 1, V: 0, Bound: -3}, // t1 <= t0 - 3 => contradiction
	}
	if _, ok := Feasible(2, cons); ok {
		t.Fatal("infeasible system reported feasible")
	}
}

func TestFeasibleSelfLoop(t *testing.T) {
	if _, ok := Feasible(1, []DiffConstraint{{U: 0, V: 0, Bound: -1}}); ok {
		t.Fatal("negative self-loop must be infeasible")
	}
	if _, ok := Feasible(1, []DiffConstraint{{U: 0, V: 0, Bound: 1}}); !ok {
		t.Fatal("positive self-loop must be feasible")
	}
}

func TestFeasibleNormalized(t *testing.T) {
	tt, ok := Feasible(3, []DiffConstraint{{U: 0, V: 1, Bound: -10}})
	if !ok {
		t.Fatal("infeasible")
	}
	min := math.Inf(1)
	for _, v := range tt {
		min = math.Min(min, v)
	}
	if math.Abs(min) > 1e-12 {
		t.Errorf("schedule not normalized: min %v", min)
	}
}

func buildRandomPairs(rng *rand.Rand, n int) []SeqPair {
	var pairs []SeqPair
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || rng.Float64() < 0.5 {
				continue
			}
			dmin := 50 + rng.Float64()*200
			dmax := dmin + rng.Float64()*400
			pairs = append(pairs, SeqPair{U: u, V: v, DMax: dmax, DMin: dmin})
		}
	}
	return pairs
}

func TestMaxSlackVsLP(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const T, setup, hold = 1000.0, 30.0, 15.0
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(4)
		pairs := buildRandomPairs(rng, n)
		if len(pairs) == 0 {
			continue
		}
		M, sched, err := MaxSlack(nil, nil, n, pairs, T, setup, hold)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Schedule must satisfy constraints at slack M itself.
		if v := Verify(sched, Constraints(nil, pairs, T, M, setup, hold)); v > Eps {
			t.Fatalf("trial %d: schedule violates constraints by %v", trial, v)
		}
		// LP: maximize M.
		p := lp.NewProblem()
		vars := make([]int, n)
		for i := range vars {
			vars[i] = p.AddVar("", 0, -lp.Inf, lp.Inf)
		}
		mv := p.AddVar("M", -1, -lp.Inf, lp.Inf) // maximize M
		for _, pr := range pairs {
			// t_U - t_V + M <= T - DMax - setup
			p.AddConstraint(lp.LE, T-pr.DMax-setup,
				lp.Coef{Var: vars[pr.U], Val: 1}, lp.Coef{Var: vars[pr.V], Val: -1}, lp.Coef{Var: mv, Val: 1})
			// t_U - t_V >= M + hold - DMin
			p.AddConstraint(lp.GE, hold-pr.DMin,
				lp.Coef{Var: vars[pr.U], Val: 1}, lp.Coef{Var: vars[pr.V], Val: -1}, lp.Coef{Var: mv, Val: -1})
		}
		sol, err := p.SolveOpts(lp.Options{})
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("trial %d: LP %v %v", trial, sol.Status, err)
		}
		if math.Abs(sol.X[mv]-M) > 1e-6 {
			t.Fatalf("trial %d: graph M=%v, LP M=%v", trial, M, sol.X[mv])
		}
	}
}

func TestMaxSlackNegativeWhenTimingDoesNotClose(t *testing.T) {
	// Combinational delay far beyond the period: the schedule exists but
	// only at a (large) negative slack, honestly reporting a design that
	// cannot close timing. The self-loop forces M <= T - DMax - setup, and
	// the cycle iteration lands on that one-constraint cycle's mean exactly.
	pairs := []SeqPair{{U: 0, V: 0, DMax: 5000, DMin: 5000}}
	M, sched, err := MaxSlack(nil, nil, 1, pairs, 1000, 30, 15)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1000.0 - 5000 - 30; M != want {
		t.Errorf("M = %v, want %v", M, want)
	}
	if len(sched) != 1 {
		t.Errorf("schedule = %v", sched)
	}
}

func TestMinDeltaPinsToAnchors(t *testing.T) {
	// No difference constraints: Delta should reach max TCI and every t_i
	// should land inside [A_i + 2 TCI_i - Delta, A_i + Delta].
	anchors := []Anchor{{A: 100, TCI: 5}, {A: 400, TCI: 20}, {A: 900, TCI: 1}}
	delta, tt, err := MinDelta(nil, nil, 3, nil, anchors)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(delta-20) > 1e-9 {
		t.Errorf("delta = %v, want 20 (max TCI)", delta)
	}
	for i, a := range anchors {
		if tt[i] < a.A+2*a.TCI-delta-1e-6 || tt[i] > a.A+delta+1e-6 {
			t.Errorf("t[%d] = %v outside anchor window", i, tt[i])
		}
	}
}

func TestMinDeltaRespectsConstraints(t *testing.T) {
	// Anchors want t0=0, t1=500 but a constraint forces t0 - t1 >= -100
	// (i.e. t1 - t0 <= 100): Delta must absorb the 400-ps conflict split
	// between the two flip-flops.
	anchors := []Anchor{{A: 0, TCI: 0}, {A: 500, TCI: 0}}
	cons := []DiffConstraint{{U: 1, V: 0, Bound: 100}}
	delta, tt, err := MinDelta(nil, nil, 2, cons, anchors)
	if err != nil {
		t.Fatal(err)
	}
	if v := Verify(tt, cons); v > 1e-6 {
		t.Fatalf("violation %v", v)
	}
	if math.Abs(delta-200) > 1e-9 {
		t.Errorf("delta = %v, want 200", delta)
	}
}

func TestMinDeltaVsLP(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(4)
		var cons []DiffConstraint
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v || rng.Float64() < 0.6 {
					continue
				}
				cons = append(cons, DiffConstraint{U: u, V: v, Bound: 50 + rng.Float64()*300})
			}
		}
		anchors := make([]Anchor, n)
		for i := range anchors {
			anchors[i] = Anchor{A: rng.Float64() * 1000, TCI: rng.Float64() * 50}
		}
		delta, tt, err := MinDelta(nil, nil, n, cons, anchors)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if v := Verify(tt, cons); v > 1e-6 {
			t.Fatalf("trial %d: violation %v", trial, v)
		}
		// LP reference.
		p := lp.NewProblem()
		vars := make([]int, n)
		for i := range vars {
			vars[i] = p.AddVar("", 0, -lp.Inf, lp.Inf)
		}
		dv := p.AddVar("delta", 1, 0, lp.Inf)
		for _, c := range cons {
			p.AddConstraint(lp.LE, c.Bound, lp.Coef{Var: vars[c.U], Val: 1}, lp.Coef{Var: vars[c.V], Val: -1})
		}
		for i, a := range anchors {
			p.AddConstraint(lp.LE, -a.A-2*a.TCI, lp.Coef{Var: vars[i], Val: -1}, lp.Coef{Var: dv, Val: -1})
			p.AddConstraint(lp.LE, a.A, lp.Coef{Var: vars[i], Val: 1}, lp.Coef{Var: dv, Val: -1})
		}
		sol, err := p.SolveOpts(lp.Options{})
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("trial %d: LP %v %v", trial, sol.Status, err)
		}
		if math.Abs(sol.Obj-delta) > 1e-7*(1+math.Abs(sol.Obj)) {
			t.Fatalf("trial %d: graph delta=%v, LP delta=%v", trial, delta, sol.Obj)
		}
	}
}

func TestWeightedSumUnconstrained(t *testing.T) {
	targets := []float64{100, 200, 300}
	weights := []float64{1, 2, 3}
	obj, tt, err := WeightedSum(nil, nil, 3, nil, targets, weights)
	if err != nil {
		t.Fatal(err)
	}
	if obj > 1e-6 {
		t.Errorf("obj = %v, want 0", obj)
	}
	for i, tv := range tt {
		if math.Abs(tv-targets[i]) > 1e-6 {
			t.Errorf("t[%d] = %v, want %v", i, tv, targets[i])
		}
	}
}

func TestWeightedSumConflict(t *testing.T) {
	// t0 wants 0 (weight 1), t1 wants 500 (weight 3), constraint
	// t1 - t0 <= 100: cheapest fix moves t0 up by 400 => cost 400.
	targets := []float64{0, 500}
	weights := []float64{1, 3}
	cons := []DiffConstraint{{U: 1, V: 0, Bound: 100}}
	obj, tt, err := WeightedSum(nil, nil, 2, cons, targets, weights)
	if err != nil {
		t.Fatal(err)
	}
	if v := Verify(tt, cons); v > 1e-6 {
		t.Fatalf("violation %v", v)
	}
	if math.Abs(obj-400) > 1e-6 {
		t.Errorf("obj = %v, want 400 (t=%v)", obj, tt)
	}
}

func TestWeightedSumVsLP(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(4)
		var cons []DiffConstraint
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v || rng.Float64() < 0.55 {
					continue
				}
				cons = append(cons, DiffConstraint{U: u, V: v, Bound: float64(rng.Intn(300)) - 50})
			}
		}
		if _, ok := Feasible(n, cons); !ok {
			continue
		}
		targets := make([]float64, n)
		weights := make([]float64, n)
		for i := range targets {
			targets[i] = float64(rng.Intn(1000))
			weights[i] = float64(1 + rng.Intn(5))
		}
		obj, tt, err := WeightedSum(nil, nil, n, cons, targets, weights)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if v := Verify(tt, cons); v > 1e-6 {
			t.Fatalf("trial %d: violation %v (t=%v)", trial, v, tt)
		}
		// LP reference: min sum w_i d_i, d_i >= |t_i - target_i|.
		p := lp.NewProblem()
		vars := make([]int, n)
		ds := make([]int, n)
		for i := range vars {
			vars[i] = p.AddVar("", 0, -lp.Inf, lp.Inf)
			ds[i] = p.AddVar("", weights[i], 0, lp.Inf)
		}
		for _, c := range cons {
			p.AddConstraint(lp.LE, c.Bound, lp.Coef{Var: vars[c.U], Val: 1}, lp.Coef{Var: vars[c.V], Val: -1})
		}
		for i := range vars {
			p.AddConstraint(lp.LE, targets[i], lp.Coef{Var: vars[i], Val: 1}, lp.Coef{Var: ds[i], Val: -1})
			p.AddConstraint(lp.LE, -targets[i], lp.Coef{Var: vars[i], Val: -1}, lp.Coef{Var: ds[i], Val: -1})
		}
		sol, err := p.SolveOpts(lp.Options{})
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("trial %d: LP %v %v", trial, sol.Status, err)
		}
		if math.Abs(sol.Obj-obj) > 1e-4*(1+math.Abs(sol.Obj)) {
			t.Fatalf("trial %d: circulation obj=%v, LP obj=%v", trial, obj, sol.Obj)
		}
	}
}

func TestWeightedSumInfeasible(t *testing.T) {
	cons := []DiffConstraint{
		{U: 0, V: 1, Bound: -3},
		{U: 1, V: 0, Bound: -3},
	}
	if _, _, err := WeightedSum(nil, nil, 2, cons, []float64{0, 0}, []float64{1, 1}); err == nil {
		t.Fatal("expected infeasibility error")
	}
}

// TestWeightedSumRecordsIntoRegistry: the base feasibility probe and the
// min-cost circulation record their counters into the caller's registry, so
// a per-run registry sees the weighted-sum objective's work.
func TestWeightedSumRecordsIntoRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	cons := []DiffConstraint{{U: 1, V: 0, Bound: 100}}
	if _, _, err := WeightedSum(nil, reg, 2, cons, []float64{0, 500}, []float64{1, 3}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"skew.probes", "mcmf.solves"} {
		if reg.Snapshot().Counter(name) == 0 {
			t.Errorf("%s not recorded into the caller's registry", name)
		}
	}
}

func TestVerify(t *testing.T) {
	cons := []DiffConstraint{{U: 0, V: 1, Bound: 5}}
	if v := Verify([]float64{10, 6}, cons); math.Abs(v-(-1)) > 1e-12 {
		t.Errorf("Verify = %v, want -1", v)
	}
	if v := Verify([]float64{20, 6}, cons); math.Abs(v-9) > 1e-12 {
		t.Errorf("Verify = %v, want 9", v)
	}
}
