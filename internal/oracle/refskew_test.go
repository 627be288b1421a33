package oracle

import (
	"math"
	"math/rand"
	"testing"

	"rotaryclk/internal/skew"
)

func TestMinCycleMeanKnownGraphs(t *testing.T) {
	// Single self-loop of weight 6: mean 6.
	if m := refMinCycleMean(1, []skew.DiffConstraint{{U: 0, V: 0, Bound: 6}}); math.Abs(m-6) > 1e-9 {
		t.Errorf("self-loop mean = %v, want 6", m)
	}
	// Two-cycle 0->1 (w 3), 1->0 (w 5): mean 4. Remember constraints are
	// edges V->U, so {U:1,V:0,Bound:3} is the edge 0->1.
	cons := []skew.DiffConstraint{
		{U: 1, V: 0, Bound: 3},
		{U: 0, V: 1, Bound: 5},
	}
	if m := refMinCycleMean(2, cons); math.Abs(m-4) > 1e-9 {
		t.Errorf("2-cycle mean = %v, want 4", m)
	}
	// Add a worse cycle (self loop 10): the minimum stays 4.
	cons = append(cons, skew.DiffConstraint{U: 0, V: 0, Bound: 10})
	if m := refMinCycleMean(2, cons); math.Abs(m-4) > 1e-9 {
		t.Errorf("mean with extra cycle = %v, want 4", m)
	}
	// A better triangle: 1->2 (1), 2->0 (1), 0->1 (1): mean 1.
	cons = append(cons,
		skew.DiffConstraint{U: 2, V: 1, Bound: 1},
		skew.DiffConstraint{U: 0, V: 2, Bound: 1},
		skew.DiffConstraint{U: 1, V: 0, Bound: 1},
	)
	if m := refMinCycleMean(3, cons); math.Abs(m-1) > 1e-9 {
		t.Errorf("triangle mean = %v, want 1", m)
	}
}

func TestMinCycleMeanAcyclic(t *testing.T) {
	cons := []skew.DiffConstraint{
		{U: 1, V: 0, Bound: 3},
		{U: 2, V: 1, Bound: 3},
	}
	if m := refMinCycleMean(3, cons); !math.IsInf(m, 1) {
		t.Errorf("acyclic graph mean = %v, want +Inf", m)
	}
	if m := refMinCycleMean(0, nil); !math.IsInf(m, 1) {
		t.Errorf("empty graph mean = %v, want +Inf", m)
	}
}

func TestMinCycleMeanNegative(t *testing.T) {
	// Negative-mean cycle: 0->1 (-5), 1->0 (1): mean -2.
	cons := []skew.DiffConstraint{
		{U: 1, V: 0, Bound: -5},
		{U: 0, V: 1, Bound: 1},
	}
	if m := refMinCycleMean(2, cons); math.Abs(m+2) > 1e-9 {
		t.Errorf("negative mean = %v, want -2", m)
	}
}

// TestMaxSlackMatchesKarp runs CheckSkew — skew.MaxSlack against Karp to
// 1e-9 relative, its schedule verified at its own slack — over sparse
// campaign instances and over dense ones where about half of all ordered
// flip-flop pairs are sequentially adjacent.
func TestMaxSlackMatchesKarp(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := int64(0); trial < 100; trial++ {
		in := genSkew(rng)
		if trial%2 == 1 {
			in.Pairs = nil
			for u := 0; u < in.N; u++ {
				for v := 0; v < in.N; v++ {
					if u != v && rng.Float64() < 0.5 {
						dmin := 50 + rng.Float64()*200
						in.Pairs = append(in.Pairs, skew.SeqPair{U: u, V: v, DMax: dmin + rng.Float64()*400, DMin: dmin})
					}
				}
			}
		}
		if vs := CheckSkew(in, trial); len(vs) > 0 {
			t.Fatalf("trial %d: %v", trial, vs)
		}
	}
}
