package oracle

import (
	"fmt"
	"math"

	"rotaryclk/internal/netlist"
	"rotaryclk/internal/placer"
)

// mlWLBound is the acceptance band of the multilevel quality check: the
// V-cycle's legalized signal wirelength may exceed the flat reference by at
// most 15%. The production sweep tracks ~1% at the 512k point; the band
// absorbs small-instance noise while staying far below the blow-up an armed
// placer.ml.corrupt fault produces (the negative test locks that gap).
const mlWLBound = 1.15

// mlCoarsestFor scales the V-cycle's coarsening floor to campaign-sized
// instances so the hierarchy actually builds instead of falling back flat
// (the production default floor of 2500 movable cells exceeds whole campaign
// circuits).
func mlCoarsestFor(c *netlist.Circuit) int {
	if n := c.NumMovable() / 8; n > 50 {
		return n
	}
	return 50
}

// CheckMultilevel is the standing-campaign oracle of the multilevel V-cycle.
// It places the same generated circuit twice — a flat reference, whose
// coarsening floor (placer.Options.MLCoarsest) is at or above the circuit's
// movable count, and a V-cycle with the floor lowered by mlCoarsestFor — and
// asserts three contracts:
//
//  1. Quality: after legalization, the V-cycle's signal wirelength is within
//     mlWLBound of the flat reference. Legalized, not raw: an interpolation
//     bug that collapses cells scores *better* on raw quadratic wirelength,
//     so only the legalized comparison can catch it.
//  2. Determinism: the V-cycle placement is Float64bits-identical at 1 and
//     8 workers.
//  3. Liveness: the V-cycle errs only when the flat reference also errs.
func CheckMultilevel(spec netlist.GenSpec, seed int64) []Violation {
	const name = "placer/multilevel"
	gen := func() (*netlist.Circuit, []Violation) {
		c, err := netlist.Generate(spec)
		if err != nil {
			return nil, violationf(name, seed, "generator failed: %v", err)
		}
		return c, nil
	}

	flat, vs := gen()
	if vs != nil {
		return vs
	}
	flatErr := placer.Global(flat, placer.Options{MLCoarsest: flat.NumMovable(), Parallelism: 1})

	ml, vs := gen()
	if vs != nil {
		return vs
	}
	mlOpt := placer.Options{MLCoarsest: mlCoarsestFor(ml), Parallelism: 1}
	mlErr := placer.Global(ml, mlOpt)
	if (flatErr == nil) != (mlErr == nil) {
		return violationf(name, seed, "feasibility depends on the V-cycle: flat err=%v, multilevel err=%v", flatErr, mlErr)
	}
	if flatErr != nil {
		return nil // consistently failing instance
	}

	var out []Violation

	// Determinism across worker counts.
	ml8, vs := gen()
	if vs != nil {
		return vs
	}
	mlOpt8 := mlOpt
	mlOpt8.Parallelism = 8
	if err := placer.Global(ml8, mlOpt8); err != nil {
		return violationf(name, seed, "multilevel placement failed at 8 workers but not 1: %v", err)
	}
	for i := range ml.Cells {
		p1, p8 := ml.Cells[i].Pos, ml8.Cells[i].Pos
		if math.Float64bits(p1.X) != math.Float64bits(p8.X) || math.Float64bits(p1.Y) != math.Float64bits(p8.Y) {
			out = append(out, Violation{Oracle: name, Seed: seed,
				Detail: fmt.Sprintf("cell %d diverges across worker counts: %v vs %v", i, p1, p8)})
			break
		}
	}

	// Quality against the flat reference, after legalization.
	if err := placer.Legalize(flat); err != nil {
		return violationf(name, seed, "legalizing flat reference: %v", err)
	}
	if err := placer.Legalize(ml); err != nil {
		return append(out, violationf(name, seed, "legalizing multilevel placement: %v", err)...)
	}
	flatWL, mlWL := flat.SignalWL(), ml.SignalWL()
	if mlWL > flatWL*mlWLBound {
		out = append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("legalized wirelength %.6g exceeds flat reference %.6g by %.1f%% (bound %.0f%%)",
				mlWL, flatWL, 100*(mlWL/flatWL-1), 100*(mlWLBound-1))})
	}
	for _, cell := range ml.Cells {
		// Movable cells only: fixed pads are generator input, identical in
		// both arms, and sit exactly on the perimeter (where floating-point
		// arclength rounding can land a hair outside the die).
		if !cell.Fixed && !ml.Die.Contains(cell.Pos) {
			out = append(out, Violation{Oracle: name, Seed: seed,
				Detail: fmt.Sprintf("cell %q legalized outside the die at %v", cell.Name, cell.Pos)})
			break
		}
	}
	return out
}
