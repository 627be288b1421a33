package skew

import (
	"math"
	"math/rand"
	"testing"
)

// Property-based tests over random small constraint graphs. The properties
// are the contracts the flow relies on:
//
//  1. the max-slack schedule achieves its claimed slack on every setup and
//     hold constraint (so for M >= 0 no slack is negative), and
//  2. the cost-driven variants (MinDelta, WeightedSum) never push any slack
//     below the working bound their constraint system encodes.

const (
	propT     = 1000.0
	propSetup = 30.0
	propHold  = 15.0
	propTol   = 1e-4
	// slackEps absorbs the Delta search tolerance and Bellman-Ford's Eps
	// relaxation slop.
	slackEps = 1e-3
)

// TestPropertyFeasibleCertificatesVerifyWithinEps is the shared-tolerance
// contract between Feasible and Verify: every certificate Feasible returns
// may violate a constraint only by the relaxation slop Eps, so exact
// verification against the same constant never reports a certified system
// as infeasible. Random systems of both shapes (raw difference constraints
// and Fishburn expansions, self-loops included) are exercised.
func TestPropertyFeasibleCertificatesVerifyWithinEps(t *testing.T) {
	// Every property test owns a dedicated rand.Rand seeded at declaration
	// (never the shared global source), so the tests are deterministic and
	// safe to run concurrently with each other.
	t.Parallel()
	rng := rand.New(rand.NewSource(45))
	feasible := 0
	for trial := 0; feasible < 40 && trial < 400; trial++ {
		n := 2 + rng.Intn(7)
		var cons []DiffConstraint
		if trial%2 == 0 {
			// Raw random difference constraints, mostly-negative bounds so a
			// good fraction of the systems are infeasible too.
			m := 1 + rng.Intn(3*n)
			for e := 0; e < m; e++ {
				u, v := rng.Intn(n), rng.Intn(n)
				cons = append(cons, DiffConstraint{U: u, V: v, Bound: (rng.Float64() - 0.4) * 100})
			}
		} else {
			pairs := buildRandomPairs(rng, n)
			// Self pairs expand to self-loop constraints.
			pairs = append(pairs, SeqPair{U: rng.Intn(n), V: rng.Intn(n), DMax: 400, DMin: 100})
			m := (rng.Float64() - 0.5) * propT
			cons = Constraints(nil, pairs, propT, m, propSetup, propHold)
		}
		tt, ok := Feasible(n, cons)
		if !ok {
			continue
		}
		feasible++
		if v := Verify(tt, cons); v > Eps {
			t.Fatalf("trial %d: Feasible certificate violates constraints by %v > Eps", trial, v)
		}
	}
	if feasible < 40 {
		t.Fatalf("only %d feasible systems generated; property undersampled", feasible)
	}
}

// TestVerifyEmptyAndSelfLoop locks the degenerate Verify cases: an empty
// constraint set (or one of satisfied self-loops only) reports no violation
// — 0, not the -Inf that used to leak into reports — while a violated
// self-loop still surfaces positively.
func TestVerifyEmptyAndSelfLoop(t *testing.T) {
	t.Parallel() // pure function, no shared state
	if v := Verify(nil, nil); v != 0 {
		t.Errorf("Verify of empty set = %v, want 0", v)
	}
	if v := Verify([]float64{1}, []DiffConstraint{{U: 0, V: 0, Bound: 5}}); v != 0 {
		t.Errorf("Verify of single satisfied self-loop = %v, want 0", v)
	}
	if v := Verify([]float64{1}, []DiffConstraint{{U: 0, V: 0, Bound: -2}}); v != 2 {
		t.Errorf("Verify of violated self-loop = %v, want 2", v)
	}
	// A satisfied self-loop must not mask the margin of a real constraint.
	cons := []DiffConstraint{{U: 0, V: 0, Bound: 1}, {U: 0, V: 1, Bound: 5}}
	if v := Verify([]float64{10, 6}, cons); v != -1 {
		t.Errorf("Verify with satisfied self-loop + pair = %v, want -1", v)
	}
}

// pairSlacks returns the worst setup and hold slack of a schedule at slack
// margin 0 (i.e. the raw per-pair slacks of formulation (6)-(7)).
func pairSlacks(t []float64, pairs []SeqPair) (setup, hold float64) {
	setup, hold = math.Inf(1), math.Inf(1)
	for _, p := range pairs {
		d := t[p.U] - t[p.V]
		setup = math.Min(setup, propT-p.DMax-propSetup-d)
		hold = math.Min(hold, p.DMin-propHold+d)
	}
	return setup, hold
}

func TestPropertyMaxSlackAchievesItsSlack(t *testing.T) {
	t.Parallel() // owns its rng; see the note in the first property test
	rng := rand.New(rand.NewSource(42))
	trials := 0
	for trials < 30 {
		n := 3 + rng.Intn(6)
		pairs := buildRandomPairs(rng, n)
		if len(pairs) == 0 {
			continue
		}
		trials++
		M, sched, err := MaxSlack(nil, nil, n, pairs, propT, propSetup, propHold)
		if err != nil {
			t.Fatalf("trial %d: %v", trials, err)
		}
		setup, hold := pairSlacks(sched, pairs)
		worst := math.Min(setup, hold)
		// The schedule must realize the claimed slack on every constraint...
		if worst < M-slackEps {
			t.Fatalf("trial %d: worst slack %v below claimed M=%v", trials, worst, M)
		}
		// ...so whenever the instance closes timing (M >= 0), no setup or
		// hold slack is negative.
		if M >= 0 && worst < -slackEps {
			t.Fatalf("trial %d: M=%v but negative slack %v", trials, M, worst)
		}
		// And M is maximal: the exact optimum leaves no uniform slack
		// M + 1e-6 feasible.
		if _, ok := Feasible(n, Constraints(nil, pairs, propT, M+1e-6, propSetup, propHold)); ok {
			t.Fatalf("trial %d: M=%v is not maximal", trials, M)
		}
	}
}

// randomAnchors builds anchors within the schedule's own delay range so the
// cost-driven instances are nontrivial but usually feasible.
func randomAnchors(rng *rand.Rand, sched []float64) []Anchor {
	anchors := make([]Anchor, len(sched))
	for i := range anchors {
		anchors[i] = Anchor{
			A:   sched[i] + (rng.Float64()-0.5)*100,
			TCI: rng.Float64() * 20,
		}
	}
	return anchors
}

func TestPropertyMinDeltaKeepsWorkingSlack(t *testing.T) {
	t.Parallel() // owns its rng; see the note in the first property test
	rng := rand.New(rand.NewSource(43))
	trials := 0
	for trials < 30 {
		n := 3 + rng.Intn(6)
		pairs := buildRandomPairs(rng, n)
		if len(pairs) == 0 {
			continue
		}
		M, sched, err := MaxSlack(nil, nil, n, pairs, propT, propSetup, propHold)
		if err != nil {
			t.Fatal(err)
		}
		trials++
		// Work at half the max slack, the flow's own convention.
		work := M / 2
		cons := Constraints(nil, pairs, propT, work, propSetup, propHold)
		delta, dt, err := MinDelta(nil, nil, n, cons, randomAnchors(rng, sched), propTol)
		if err != nil {
			t.Fatalf("trial %d: %v", trials, err)
		}
		// The cost-driven schedule must still satisfy every working
		// constraint: no slack drops below the scheduled bound.
		if v := Verify(dt, cons); v > slackEps {
			t.Fatalf("trial %d: MinDelta schedule violates working constraints by %v", trials, v)
		}
		setup, hold := pairSlacks(dt, pairs)
		if worst := math.Min(setup, hold); worst < work-slackEps {
			t.Fatalf("trial %d: worst slack %v below working bound %v", trials, worst, work)
		}
		if delta < 0 {
			t.Fatalf("trial %d: negative Delta %v", trials, delta)
		}
	}
}

func TestPropertyWeightedSumKeepsWorkingSlack(t *testing.T) {
	t.Parallel() // owns its rng; see the note in the first property test
	rng := rand.New(rand.NewSource(44))
	trials := 0
	for trials < 30 {
		n := 3 + rng.Intn(6)
		pairs := buildRandomPairs(rng, n)
		if len(pairs) == 0 {
			continue
		}
		M, sched, err := MaxSlack(nil, nil, n, pairs, propT, propSetup, propHold)
		if err != nil {
			t.Fatal(err)
		}
		trials++
		work := M / 2
		cons := Constraints(nil, pairs, propT, work, propSetup, propHold)
		targets := make([]float64, n)
		weights := make([]float64, n)
		for i := range targets {
			targets[i] = sched[i] + (rng.Float64()-0.5)*100
			weights[i] = 1 + rng.Float64()*10
		}
		obj, wt, err := WeightedSum(nil, nil, n, cons, targets, weights)
		if err != nil {
			t.Fatalf("trial %d: %v", trials, err)
		}
		if v := Verify(wt, cons); v > slackEps {
			t.Fatalf("trial %d: WeightedSum schedule violates working constraints by %v", trials, v)
		}
		setup, hold := pairSlacks(wt, pairs)
		if worst := math.Min(setup, hold); worst < work-slackEps {
			t.Fatalf("trial %d: worst slack %v below working bound %v", trials, worst, work)
		}
		// The reported objective is the true weighted mismatch of the
		// returned schedule, and it is never negative.
		check := 0.0
		for i := range wt {
			check += weights[i] * math.Abs(wt[i]-targets[i])
		}
		if math.Abs(check-obj) > 1e-6 || obj < 0 {
			t.Fatalf("trial %d: objective %v, recomputed %v", trials, obj, check)
		}
	}
}
