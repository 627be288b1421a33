package core

import (
	"fmt"
	"math"

	"rotaryclk/internal/netlist"
	"rotaryclk/internal/placer"
	"rotaryclk/internal/skew"
	"rotaryclk/internal/timing"
)

// Audit verifies every contract a completed flow result promises, end to
// end, against the circuit's final state:
//
//  1. the placement is legal (no overlaps, everything inside the die);
//  2. every tapping point lies on its assigned ring and its realized clock
//     delay equals the scheduled target modulo the period;
//  3. the schedule satisfies the Fishburn timing constraints of the *final*
//     placement at the reported working slack;
//  4. the assignment's bookkeeping (total cost, per-ring loads, max cap)
//     is internally consistent.
//
// It returns nil for a sound design and a descriptive error for the first
// violation found. Audit is pure: it never mutates the circuit or result.
func Audit(c *netlist.Circuit, cfg Config, res *Result) error {
	cfg.normalize()
	if res == nil || res.Assign == nil || res.Array == nil {
		return fmt.Errorf("core: audit: incomplete result")
	}
	n := len(res.FFCells)
	// A run degraded before the base case carries a legal placement but an
	// empty assignment (and possibly an empty schedule): only the placement
	// contracts apply to it. A full result must be fully consistent.
	partial := res.Degraded && len(res.Assign.Taps) < n
	if !partial && (len(res.Schedule) != n || len(res.Assign.Taps) != n) {
		return fmt.Errorf("core: audit: %d flip-flops but %d schedule entries, %d taps",
			n, len(res.Schedule), len(res.Assign.Taps))
	}

	// 1. Placement legality.
	if err := c.Validate(); err != nil {
		return fmt.Errorf("core: audit: %w", err)
	}
	if ov := placer.MaxOverlap(c); ov > 1e-6 {
		return fmt.Errorf("core: audit: placement has overlap area %v", ov)
	}
	if partial {
		if len(res.Assign.Taps) != 0 {
			return fmt.Errorf("core: audit: partial result with %d of %d taps", len(res.Assign.Taps), n)
		}
		return nil
	}

	// 2. Taps realize the schedule. Fallback taps (nearest-point recovery)
	// are exempt from the realization check by design — they trade the skew
	// target for feasibility — but must still sit on their ring.
	fallback := make(map[int]bool, len(res.Assign.Fallbacks))
	for _, i := range res.Assign.Fallbacks {
		fallback[i] = true
	}
	T := cfg.Params.Period
	for i, tap := range res.Assign.Taps {
		ring := res.Array.Rings[res.Assign.Ring[i]]
		if _, _, d := ring.Nearest(tap.Point); d > 1e-6 {
			return fmt.Errorf("core: audit: ff %d tap point %v is %v um off ring %d",
				i, tap.Point, d, ring.ID)
		}
		if fallback[i] {
			continue
		}
		diff := math.Mod(tap.Delay-res.Schedule[i], T)
		if diff < 0 {
			diff += T
		}
		if math.Min(diff, T-diff) > 1e-4 {
			return fmt.Errorf("core: audit: ff %d tap delay %v does not realize target %v (mod %v)",
				i, tap.Delay, res.Schedule[i], T)
		}
	}

	// 3. Timing constraints of the final placement at the working slack.
	pairs, err := seqPairs(c, cfg.TModel, timing.FFIndex(len(c.Cells), res.FFCells))
	if err != nil {
		return fmt.Errorf("core: audit: %w", err)
	}
	cons := skew.Constraints(pairs, T, res.WorkSlack, cfg.TModel.TSetup, cfg.TModel.THold)
	if v := skew.Verify(res.Schedule, cons); v > 1e-6 {
		return fmt.Errorf("core: audit: schedule violates timing constraints by %v ps at slack %v",
			v, res.WorkSlack)
	}

	// 4. Assignment bookkeeping.
	total := 0.0
	loads := make([]float64, len(res.Array.Rings))
	for i, tap := range res.Assign.Taps {
		total += tap.WireLen
		loads[res.Assign.Ring[i]] += cfg.Params.StubCap(tap.WireLen)
	}
	if math.Abs(total-res.Assign.Total) > 1e-6*(1+total) {
		return fmt.Errorf("core: audit: tapping total %v != recorded %v", total, res.Assign.Total)
	}
	maxCap := 0.0
	for _, l := range loads {
		maxCap = math.Max(maxCap, l)
	}
	if math.Abs(maxCap-res.Assign.MaxCap) > 1e-6*(1+maxCap) {
		return fmt.Errorf("core: audit: max cap %v != recorded %v", maxCap, res.Assign.MaxCap)
	}
	return nil
}
