package assign

import (
	"fmt"
	"math"
)

// Relaxation is one rung of the infeasibility-recovery ladder: the candidate
// ring count, the per-ring capacity (nil means the Problem default) and the
// nearest-point tapping fallback to solve with, plus the action string
// callers log when they climb to it.
type Relaxation struct {
	K        int
	Capacity []int
	Fallback bool
	Action   string
}

// Ladder returns the relaxed rungs to try, in order, after a default
// instance (the zero Relaxation) of n flip-flops over numRings rings proved
// infeasible: defaultK doubled (capped at numRings) with ring capacity x1.5,
// then every ring a candidate with capacity x2.25, and last the same with
// the nearest-point fallback, whose taps may miss their skew targets. The
// capacities scale the default uniform capacity (Problem.Capacity's 5/4
// headroom).
func Ladder(n, numRings int) []Relaxation {
	k2 := min(defaultK*2, numRings)
	baseCap := float64((n*5/4)/numRings + 1)
	uniform := func(scale float64) []int {
		caps := make([]int, numRings)
		for j := range caps {
			caps[j] = int(math.Ceil(baseCap * scale))
		}
		return caps
	}
	return []Relaxation{
		{K: k2, Capacity: uniform(1.5),
			Action: fmt.Sprintf("relaxing assignment: K widened to %d, ring capacity x1.5", k2)},
		{K: numRings, Capacity: uniform(2.25),
			Action: fmt.Sprintf("relaxing assignment: all %d rings candidate, ring capacity x2.25", numRings)},
		{K: numRings, Capacity: uniform(2.25), Fallback: true,
			Action: "enabling nearest-point tapping fallback (taps may miss skew targets)"},
	}
}
