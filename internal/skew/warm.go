package skew

import (
	"fmt"

	"rotaryclk/internal/obs"
	"rotaryclk/internal/stop"
)

// WarmStart re-checks a previous schedule against an (edited) constraint
// system and minimally repairs it: the Bellman-Ford kernel initialized from
// the seed instead of zeros, so entries only move when a constraint forces
// them, and a seed that already satisfies every constraint comes back
// bit-identical after a single O(m) verification round — the bounded
// "re-check only the edited rows" pass of the ECO flow. The result is NOT
// re-normalized (the seed's absolute frame is part of its meaning: tapping
// targets were derived in it).
//
// The relaxation fixpoint from a given seed is the pointwise infimum over
// constraint paths, which is order-independent, so two calls with equal
// inputs return bit-identical schedules regardless of how the edits were
// batched. It returns the repaired schedule, the number of relaxation
// rounds, and ok=false when the system is infeasible (negative constraint
// cycle). An infeasible system is rejected at the first round that exposes
// the cycle, so its round count is usually far below n+1. The seed is never
// mutated. A seed of the wrong length or a constraint referencing variables
// outside [0,n) panics, matching Feasible.
//
// The optional stop token is checked once per relaxation round and the
// kernel's skew.* counters are recorded into reg (nil records nothing).
// A fired token abandons the repair and reports the stop
// error; the partial vector is not a certificate and is discarded.
func WarmStart(tok *stop.Token, reg *obs.Registry, n int, cons []DiffConstraint, seed []float64) ([]float64, int, bool, error) {
	if len(seed) != n {
		panic(fmt.Sprintf("skew: warm start seed has %d entries for %d variables", len(seed), n))
	}
	dist := make([]float64, n)
	copy(dist, seed)
	rounds, ok, _, err := relax(tok, reg, n, cons, dist)
	if err != nil {
		return nil, rounds, false, fmt.Errorf("skew: warm-start repair: %w", err)
	}
	if !ok {
		return nil, rounds, false, nil
	}
	return dist, rounds, true, nil
}
