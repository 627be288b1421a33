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
//   - Campaign: RunCampaign drives N seeded random instances from these
//     generators through every oracle; a failing instance is greedily shrunk
//     (drop FFs, rings, pairs, nets while the violation persists) and the
//     minimized instance is written as a JSON repro under testdata/repros/.
//
// The package never panics on generated instances; reference solves that
// exceed their node budgets skip the comparison rather than guessing.
package oracle

import (
	"fmt"
	"math"
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
