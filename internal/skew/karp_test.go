package skew

import (
	"math"
	"math/rand"
	"testing"
)

func TestMinCycleMeanKnownGraphs(t *testing.T) {
	// Single self-loop of weight 6: mean 6.
	if m := MinCycleMean(1, []DiffConstraint{{U: 0, V: 0, Bound: 6}}); math.Abs(m-6) > 1e-9 {
		t.Errorf("self-loop mean = %v, want 6", m)
	}
	// Two-cycle 0->1 (w 3), 1->0 (w 5): mean 4. Remember constraints are
	// edges V->U, so {U:1,V:0,Bound:3} is the edge 0->1.
	cons := []DiffConstraint{
		{U: 1, V: 0, Bound: 3},
		{U: 0, V: 1, Bound: 5},
	}
	if m := MinCycleMean(2, cons); math.Abs(m-4) > 1e-9 {
		t.Errorf("2-cycle mean = %v, want 4", m)
	}
	// Add a worse cycle (self loop 10): the minimum stays 4.
	cons = append(cons, DiffConstraint{U: 0, V: 0, Bound: 10})
	if m := MinCycleMean(2, cons); math.Abs(m-4) > 1e-9 {
		t.Errorf("mean with extra cycle = %v, want 4", m)
	}
	// A better triangle: 1->2 (1), 2->0 (1), 0->1 (1): mean 1.
	cons = append(cons,
		DiffConstraint{U: 2, V: 1, Bound: 1},
		DiffConstraint{U: 0, V: 2, Bound: 1},
		DiffConstraint{U: 1, V: 0, Bound: 1},
	)
	if m := MinCycleMean(3, cons); math.Abs(m-1) > 1e-9 {
		t.Errorf("triangle mean = %v, want 1", m)
	}
}

func TestMinCycleMeanAcyclic(t *testing.T) {
	cons := []DiffConstraint{
		{U: 1, V: 0, Bound: 3},
		{U: 2, V: 1, Bound: 3},
	}
	if m := MinCycleMean(3, cons); !math.IsInf(m, 1) {
		t.Errorf("acyclic graph mean = %v, want +Inf", m)
	}
	if m := MinCycleMean(0, nil); !math.IsInf(m, 1) {
		t.Errorf("empty graph mean = %v, want +Inf", m)
	}
}

func TestMinCycleMeanNegative(t *testing.T) {
	// Negative-mean cycle: 0->1 (-5), 1->0 (1): mean -2.
	cons := []DiffConstraint{
		{U: 1, V: 0, Bound: -5},
		{U: 0, V: 1, Bound: 1},
	}
	if m := MinCycleMean(2, cons); math.Abs(m+2) > 1e-9 {
		t.Errorf("negative mean = %v, want -2", m)
	}
}

// TestMaxSlackExactMatchesBinarySearch cross-validates Karp against the
// Bellman-Ford binary search on random instances.
func TestMaxSlackExactMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const T, setup, hold = 1000.0, 30.0, 15.0
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(8)
		pairs := buildRandomPairs(rng, n)
		if len(pairs) == 0 {
			continue
		}
		mBS, schedBS, err := MaxSlack(nil, nil, n, pairs, T, setup, hold, 1e-6)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		mEx, schedEx, err := MaxSlackExact(nil, nil, n, pairs, T, setup, hold)
		if err != nil {
			t.Fatalf("trial %d: exact: %v", trial, err)
		}
		if math.Abs(mBS-mEx) > 1e-3 {
			t.Fatalf("trial %d: binary search M=%v, Karp M=%v", trial, mBS, mEx)
		}
		if v := Verify(schedEx, Constraints(pairs, T, mEx, setup, hold)); v > 1e-6 {
			t.Fatalf("trial %d: exact schedule violates constraints by %v", trial, v)
		}
		_ = schedBS
	}
}

// TestMaxSlackExactTimingDoesNotClose mirrors the negative-slack case.
func TestMaxSlackExactTimingDoesNotClose(t *testing.T) {
	pairs := []SeqPair{{U: 0, V: 0, DMax: 5000, DMin: 5000}}
	M, _, err := MaxSlackExact(nil, nil, 1, pairs, 1000, 30, 15)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(M-(1000-5000-30)) > 1e-3 {
		t.Errorf("M = %v", M)
	}
}

func BenchmarkMaxSlackBinarySearch(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	pairs := buildRandomPairs(rng, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MaxSlack(nil, nil, 40, pairs, 1000, 30, 15, 1e-6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxSlackKarp(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	pairs := buildRandomPairs(rng, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MaxSlackExact(nil, nil, 40, pairs, 1000, 30, 15); err != nil {
			b.Fatal(err)
		}
	}
}
