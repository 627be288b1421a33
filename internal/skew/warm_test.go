package skew

import (
	"math"
	"testing"
	"time"

	"rotaryclk/internal/stop"
)

func TestWarmStartFeasibleSeedUnchanged(t *testing.T) {
	cons := []DiffConstraint{
		{U: 0, V: 1, Bound: 5},
		{U: 1, V: 0, Bound: 5},
		{U: 2, V: 0, Bound: 3},
	}
	seed := []float64{10, 7.5, 8.25}
	got, rounds, ok, _ := WarmStart(nil, nil, 3, cons, seed)
	if !ok {
		t.Fatal("feasible seed reported infeasible")
	}
	if rounds != 1 {
		t.Fatalf("feasible seed took %d rounds, want 1", rounds)
	}
	for i := range seed {
		if math.Float64bits(got[i]) != math.Float64bits(seed[i]) {
			t.Fatalf("entry %d changed: %v -> %v", i, seed[i], got[i])
		}
	}
	// The seed itself must not be mutated.
	if seed[0] != 10 || seed[1] != 7.5 || seed[2] != 8.25 {
		t.Fatal("seed mutated")
	}
}

func TestWarmStartRepairsViolation(t *testing.T) {
	// t0 - t1 <= -2 forces t0 at least 2 below t1; the seed violates it.
	cons := []DiffConstraint{{U: 0, V: 1, Bound: -2}}
	seed := []float64{5, 5}
	got, _, ok, _ := WarmStart(nil, nil, 2, cons, seed)
	if !ok {
		t.Fatal("repairable system reported infeasible")
	}
	if v := Verify(got, cons); v > Eps {
		t.Fatalf("repaired schedule violates by %v", v)
	}
	// Repair lowers t0; t1 keeps its seed value (absolute frame preserved).
	if got[1] != 5 {
		t.Fatalf("untouched variable moved: %v", got[1])
	}
	if got[0] > 3+Eps {
		t.Fatalf("t0 = %v, want <= 3", got[0])
	}
}

func TestWarmStartInfeasible(t *testing.T) {
	// t0 - t1 <= -1 and t1 - t0 <= -1: negative cycle.
	cons := []DiffConstraint{
		{U: 0, V: 1, Bound: -1},
		{U: 1, V: 0, Bound: -1},
	}
	_, rounds, ok, _ := WarmStart(nil, nil, 2, cons, []float64{0, 0})
	if ok {
		t.Fatal("negative cycle reported feasible")
	}
	// The kernel rejects the cycle as soon as it shows up in the parent
	// pointers, before the n+1-round cap.
	if rounds >= 3 {
		t.Fatalf("infeasible warm start took %d rounds, want < n+1 = 3", rounds)
	}
}

func TestWarmStartDeterministicAcrossBatching(t *testing.T) {
	// Two disjoint cones; repairing them in one batch or as two sequential
	// warm starts must agree bitwise.
	consA := []DiffConstraint{{U: 0, V: 1, Bound: -3}}
	consB := []DiffConstraint{{U: 2, V: 3, Bound: -7}}
	both := append(append([]DiffConstraint{}, consA...), consB...)
	seed := []float64{1, 1, 2, 2}

	batch, _, ok, _ := WarmStart(nil, nil, 4, both, seed)
	if !ok {
		t.Fatal("batch infeasible")
	}
	step1, _, ok, _ := WarmStart(nil, nil, 4, consA, seed)
	if !ok {
		t.Fatal("step1 infeasible")
	}
	step2, _, ok, _ := WarmStart(nil, nil, 4, consB, step1)
	if !ok {
		t.Fatal("step2 infeasible")
	}
	for i := range batch {
		if math.Float64bits(batch[i]) != math.Float64bits(step2[i]) {
			t.Fatalf("entry %d: batch %v vs sequential %v", i, batch[i], step2[i])
		}
	}
}

func TestWarmStartSeedLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	WarmStart(nil, nil, 3, nil, []float64{0})
}

func TestWarmStartStopToken(t *testing.T) {
	tok, cancel := stop.WithTimeout(-time.Second)
	defer cancel()
	_, _, _, err := WarmStart(tok, nil, 2, []DiffConstraint{{U: 0, V: 1, Bound: 0}}, []float64{0, 0})
	if !stop.IsStop(err) {
		t.Fatalf("err = %v, want stop error", err)
	}
}
