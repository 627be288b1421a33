package oracle

import (
	"errors"
	"fmt"
	"math"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/core"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
)

// translateCircuit rebuilds the circuit with every position and the die
// shifted by d. Connectivity, names, sizes, kinds, and IDs are preserved.
func translateCircuit(c *netlist.Circuit, d geom.Point) *netlist.Circuit {
	out := netlist.New(c.Name)
	out.Die = geom.Rect{Lo: c.Die.Lo.Add(d), Hi: c.Die.Hi.Add(d)}
	for _, cell := range c.Cells {
		out.AddCell(&netlist.Cell{
			Name:  cell.Name,
			Kind:  cell.Kind,
			Fn:    cell.Fn,
			W:     cell.W,
			H:     cell.H,
			Pos:   cell.Pos.Add(d),
			Fixed: cell.Fixed,
		})
	}
	for _, net := range c.Nets {
		out.AddNet(net.Name, net.Pins...)
	}
	return out
}

// CheckTranslate runs the full integrated flow twice — on a generated
// circuit and on its translate by delta — and asserts the flow's outputs
// are translation-invariant: same feasibility, max slack, tapping and
// signal wirelength, and max ring load. Everything the flow computes is a
// function of relative geometry only, so a dependence on absolute
// coordinates is a bug somewhere in the skew→assign→reoptimize pipeline.
//
// Every cell is pinned and initial placement is skipped: legalization's
// row-assignment ties flip under the ~1-ulp coordinate drift translation
// induces, which cascades into discretely different (and individually
// correct) flows. With placement pinned, each compared metric is a
// continuous function of relative geometry, so tight tolerances hold.
func CheckTranslate(spec netlist.GenSpec, cfg core.Config, delta geom.Point, seed int64) []Violation {
	const name = "core/translate"
	c1, err := netlist.Generate(spec)
	if err != nil {
		return violationf(name, seed, "generator failed: %v", err)
	}
	for _, cell := range c1.Cells {
		cell.Fixed = true
	}
	cfg.SkipInitialPlace = true
	c2 := translateCircuit(c1, delta)
	res1, err1 := core.Run(c1, cfg)
	res2, err2 := core.Run(c2, cfg)
	if (err1 == nil) != (err2 == nil) {
		return violationf(name, seed, "flow feasibility depends on translation: original err=%v, translated err=%v", err1, err2)
	}
	if err1 != nil {
		return nil // consistently failing instance
	}
	var out []Violation
	add := func(metric string, a, b float64) {
		if !closeRel(a, b, 1e-6, 1e-6) {
			out = append(out, Violation{Oracle: name, Seed: seed,
				Detail: fmt.Sprintf("%s not translation-invariant: %.9g vs %.9g after shifting by %s", metric, a, b, fmtPoint(delta))})
		}
	}
	add("max slack", res1.MaxSlack, res2.MaxSlack)
	add("final tapping wirelength", res1.Final.TapWL, res2.Final.TapWL)
	add("final signal wirelength", res1.Final.SignalWL, res2.Final.SignalWL)
	add("final max ring load", res1.Final.MaxCap, res2.Final.MaxCap)
	// The ring assignment itself should translate ring-for-ring; a mismatch
	// is only a violation when the objectives also diverge, since equal-cost
	// ties may break differently under perturbed floating point.
	if len(res1.Assign.Ring) == len(res2.Assign.Ring) {
		diff := 0
		for i := range res1.Assign.Ring {
			if res1.Assign.Ring[i] != res2.Assign.Ring[i] {
				diff++
			}
		}
		if diff > 0 && !closeRel(res1.Assign.Total, res2.Assign.Total, 1e-6, 1e-6) {
			out = append(out, Violation{Oracle: name, Seed: seed,
				Detail: fmt.Sprintf("%d flip-flops changed rings under translation and totals diverge (%.9g vs %.9g)", diff, res1.Assign.Total, res2.Assign.Total)})
		}
	} else {
		out = append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("assignment sizes differ: %d vs %d", len(res1.Assign.Ring), len(res2.Assign.Ring))})
	}
	return out
}

// CheckTimingIdentity runs the full integrated flow twice on the same
// generated circuit — the default flow, and the timing-driven mode in its
// identity configuration (negative TimingBoost, so every net-weight scale
// stays exactly 1.0) — and asserts the outputs are bit-identical: positions,
// skew schedule, and final metrics. The timing-driven machinery (critical-path
// extraction, the placer's net-weight overlay, the scale decay) all execute;
// any numeric divergence means the overlay perturbs arithmetic it promises
// not to touch (placer.Options.NetWeights contract).
func CheckTimingIdentity(spec netlist.GenSpec, cfg core.Config, seed int64) []Violation {
	const name = "core/timing-identity"
	c1, err := netlist.Generate(spec)
	if err != nil {
		return violationf(name, seed, "generator failed: %v", err)
	}
	c2, err := netlist.Generate(spec)
	if err != nil {
		return violationf(name, seed, "generator failed: %v", err)
	}
	cfgTD := cfg
	cfgTD.TimingDriven = true
	cfgTD.TimingBoost = -1
	res1, err1 := core.Run(c1, cfg)
	res2, err2 := core.Run(c2, cfgTD)
	if (err1 == nil) != (err2 == nil) {
		return violationf(name, seed, "flow feasibility depends on identity-mode reweighting: default err=%v, timing err=%v", err1, err2)
	}
	if err1 != nil {
		return nil // consistently failing instance
	}
	var out []Violation
	for i := range c1.Cells {
		p1, p2 := c1.Cells[i].Pos, c2.Cells[i].Pos
		if math.Float64bits(p1.X) != math.Float64bits(p2.X) || math.Float64bits(p1.Y) != math.Float64bits(p2.Y) {
			out = append(out, Violation{Oracle: name, Seed: seed,
				Detail: fmt.Sprintf("cell %d position diverges under identity-mode reweighting: %v vs %v", i, p1, p2)})
			break
		}
	}
	if len(res1.Schedule) != len(res2.Schedule) {
		return append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("schedule sizes differ: %d vs %d", len(res1.Schedule), len(res2.Schedule))})
	}
	for i := range res1.Schedule {
		if math.Float64bits(res1.Schedule[i]) != math.Float64bits(res2.Schedule[i]) {
			out = append(out, Violation{Oracle: name, Seed: seed,
				Detail: fmt.Sprintf("schedule entry %d diverges under identity-mode reweighting: %v vs %v", i, res1.Schedule[i], res2.Schedule[i])})
			break
		}
	}
	if math.Float64bits(res1.Final.TapWL) != math.Float64bits(res2.Final.TapWL) ||
		math.Float64bits(res1.Final.SignalWL) != math.Float64bits(res2.Final.SignalWL) ||
		math.Float64bits(res1.Final.MaxCap) != math.Float64bits(res2.Final.MaxCap) {
		out = append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("final metrics diverge under identity-mode reweighting: %+v vs %+v", res1.Final, res2.Final)})
	}
	return out
}

// scaleInstance returns the instance scaled by an exact factor of two with
// compensated electrical parameters: lengths double, wire resistance drops
// 4x, and the flip-flop pin capacitance doubles, so every stub delay,
// on-ring delay, and delay target is preserved exactly (all scale factors
// are powers of two, so the transformed floating-point arithmetic is
// bit-for-bit a scaled image of the original). Tapping wirelengths and
// loads must then come out exactly doubled.
func scaleInstance(in *AssignInstance) *AssignInstance {
	out := in.clone()
	out.Params.RWire = in.Params.RWire / 4
	out.Params.CFF = in.Params.CFF * 2
	out.Params.CRing = in.Params.CRing / 2
	for i, rs := range out.Rings {
		out.Rings[i].Center = rs.Center.Scale(2)
		out.Rings[i].Side = rs.Side * 2
	}
	for i, f := range out.FFs {
		out.FFs[i].Pos = f.Pos.Scale(2)
	}
	return out
}

// CheckScale asserts the compensated-scale invariance: MinCost's total
// wirelength and MinMaxCap's LP optimum must exactly double under
// scaleInstance, and feasibility must not change.
func CheckScale(in *AssignInstance, seed int64) []Violation {
	const name = "assign/scale"
	sc := scaleInstance(in)
	a1, err1 := assign.MinCost(in.Problem())
	a2, err2 := assign.MinCost(sc.Problem())
	var out []Violation
	switch {
	case (err1 == nil) != (err2 == nil):
		out = append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("MinCost feasibility changed under compensated 2x scaling: %v vs %v", err1, err2)})
	case err1 == nil:
		if !closeRel(a2.Total, 2*a1.Total, 1e-9, 1e-9) {
			out = append(out, Violation{Oracle: name, Seed: seed,
				Detail: fmt.Sprintf("MinCost total %.12g did not double under compensated 2x scaling (got %.12g)", a1.Total, a2.Total)})
		}
	}
	_, rel1, errl1 := assign.MinMaxCap(in.Problem())
	_, rel2, errl2 := assign.MinMaxCap(sc.Problem())
	switch {
	case (errl1 == nil) != (errl2 == nil):
		out = append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("MinMaxCap feasibility changed under compensated 2x scaling: %v vs %v", errl1, errl2)})
	case errl1 == nil:
		if !closeRel(rel2.LPOpt, 2*rel1.LPOpt, 1e-6, 1e-6) {
			out = append(out, Violation{Oracle: name, Seed: seed,
				Detail: fmt.Sprintf("MinMaxCap LP optimum %.12g did not double under compensated 2x scaling (got %.12g)", rel1.LPOpt, rel2.LPOpt)})
		}
	}
	return out
}

// CheckPermute asserts objective invariance under reindexing: permuting the
// flip-flop order must not change MinCost's optimal total or MinMaxCap's LP
// optimum (the optimum value is a property of the instance, not its
// encoding; only tie-broken integer choices may legitimately differ).
func CheckPermute(in *AssignInstance, perm []int, seed int64) []Violation {
	const name = "assign/permute"
	if len(perm) != len(in.FFs) {
		return violationf(name, seed, "permutation length %d for %d flip-flops", len(perm), len(in.FFs))
	}
	pm := in.clone()
	for i, p := range perm {
		pm.FFs[i] = in.FFs[p]
	}
	var out []Violation
	a1, err1 := assign.MinCost(in.Problem())
	a2, err2 := assign.MinCost(pm.Problem())
	switch {
	case (err1 == nil) != (err2 == nil):
		out = append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("MinCost feasibility changed under permutation: %v vs %v", err1, err2)})
	case err1 == nil:
		if !closeRel(a1.Total, a2.Total, 1e-9, 1e-9) {
			out = append(out, Violation{Oracle: name, Seed: seed,
				Detail: fmt.Sprintf("MinCost total changed under flip-flop permutation: %.12g vs %.12g", a1.Total, a2.Total)})
		}
	}
	_, rel1, errl1 := assign.MinMaxCap(in.Problem())
	_, rel2, errl2 := assign.MinMaxCap(pm.Problem())
	switch {
	case (errl1 == nil) != (errl2 == nil):
		out = append(out, Violation{Oracle: name, Seed: seed,
			Detail: fmt.Sprintf("MinMaxCap feasibility changed under permutation: %v vs %v", errl1, errl2)})
	case errl1 == nil:
		if !closeRel(rel1.LPOpt, rel2.LPOpt, 1e-6, 1e-6) {
			out = append(out, Violation{Oracle: name, Seed: seed,
				Detail: fmt.Sprintf("MinMaxCap LP optimum changed under flip-flop permutation: %.12g vs %.12g", rel1.LPOpt, rel2.LPOpt)})
		}
	}
	return out
}

// CheckTighten asserts capacity monotonicity: reducing the capacity of the
// most-loaded ring below its current usage can only increase (or preserve)
// MinCost's optimal total wirelength — or make the instance infeasible.
func CheckTighten(in *AssignInstance, seed int64) []Violation {
	const name = "assign/tighten"
	a, err := assign.MinCost(in.Problem())
	if err != nil {
		return nil // nothing to tighten
	}
	counts := make([]int, len(in.Rings))
	for _, j := range a.Ring {
		counts[j]++
	}
	jMax := 0
	for j, n := range counts {
		if n > counts[jMax] {
			jMax = j
		}
	}
	if counts[jMax] == 0 {
		return nil
	}
	tight := in.clone()
	tight.Capacity = append([]int(nil), in.capacities()...)
	tight.Capacity[jMax] = counts[jMax] - 1
	a2, err2 := assign.MinCost(tight.Problem())
	if err2 != nil {
		if errors.Is(err2, assign.ErrInfeasible) {
			return nil // tightening legitimately killed the instance
		}
		return violationf(name, seed, "MinCost failed (%v) on the tightened instance (expected a result or ErrInfeasible)", err2)
	}
	if a2.Total < a.Total-1e-9*(1+a.Total) {
		return violationf(name, seed,
			"total wirelength decreased from %.12g to %.12g after tightening ring %d's capacity from %d to %d",
			a.Total, a2.Total, jMax, in.capacities()[jMax], tight.Capacity[jMax])
	}
	return nil
}
