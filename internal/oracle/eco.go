package oracle

// The ECO-vs-scratch differential oracle: the incremental re-optimization
// path (internal/eco) claims its three layers — dirty-region placement,
// warm-started scheduling, price-started assignment patching — are exact,
// not approximate. This oracle holds it to that claim by running the same
// delta sequence through the incremental arm and through a from-scratch arm
// (Options.Scratch: same orchestration, full recompute) on independent
// clones of one placed circuit, comparing positions, schedules, totals and
// failure behavior after every delta.

import (
	"fmt"
	"math"

	"rotaryclk/internal/core"
	"rotaryclk/internal/eco"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/timing"
)

// ECOSpec is the generated-circuit + delta-sequence configuration of one
// ECO differential check, serialized into its repro.
type ECOSpec struct {
	Spec   netlist.GenSpec
	Deltas []eco.Delta
}

func (s *ECOSpec) clone() *ECOSpec {
	return &ECOSpec{Spec: s.Spec, Deltas: append([]eco.Delta(nil), s.Deltas...)}
}

// CheckECO generates the circuit, runs the base flow once, then applies the
// delta sequence one delta at a time through the incremental arm and the
// scratch arm. After every delta both arms must agree on feasibility and
// then pass CompareECOArms. A base flow that fails or degrades yields no
// comparison. The check returns
// at the first divergence: past it the arms optimize different states and
// later differences are noise.
func CheckECO(s *ECOSpec, cfg core.Config, seed int64) []Violation {
	const name = "eco/scratch"
	c, err := netlist.Generate(s.Spec)
	if err != nil {
		return violationf(name, seed, "generator failed: %v", err)
	}
	res, err := core.Run(c, cfg)
	if err != nil || res.Degraded {
		return nil // no clean base case to differentiate against
	}
	c1, c2 := c.Clone(), c.Clone()
	st1, err1 := core.NewECOState(c1, cfg, res)
	st2, err2 := core.NewECOState(c2, cfg, res)
	if err1 != nil || err2 != nil {
		return violationf(name, seed, "ECO state construction: %v / %v", err1, err2)
	}
	for di, d := range s.Deltas {
		o1, e1 := eco.Apply(st1, []eco.Delta{d}, eco.Options{})
		o2, e2 := eco.Apply(st2, []eco.Delta{d}, eco.Options{Scratch: true})
		if (e1 == nil) != (e2 == nil) {
			return violationf(name, seed,
				"delta %d %s: feasibility differs: eco err=%v, scratch err=%v", di, d, e1, e2)
		}
		if e1 != nil {
			continue // consistently rejected delta
		}
		if err := CompareECOArms(st1, st2, o1, o2); err != nil {
			return violationf(name, seed, "delta %d %s: %v", di, d, err)
		}
	}
	return nil
}

// CompareECOArms is the ECO equivalence contract for one applied edit: the
// incremental arm (st1, with outcome o1) against the scratch arm (st2, o2)
// that applied the same deltas to an equal state. Both arms must agree on
// degradation; the incremental arm's cached timing pairs must be bit-equal
// to a full analysis of its committed circuit and its cached signal
// wirelength bit-equal to a full Circuit.SignalWL; totals must agree within
// 1e-6 relative (the patched assignment is cost-equal, not tie-equal), and
// positions and schedules within 1e-9. It returns nil when they agree.
func CompareECOArms(st1, st2 *eco.State, o1, o2 *eco.Outcome) error {
	if o1.Degraded != o2.Degraded {
		return fmt.Errorf("degradation differs: eco=%v, scratch=%v", o1.Degraded, o2.Degraded)
	}
	if err := checkCachedPairs(st1); err != nil {
		return err
	}
	if err := checkCachedWL(st1, o1); err != nil {
		return err
	}
	if !closeRel(o1.Total, o2.Total, 1e-6, 1e-6) {
		return fmt.Errorf("tapping total differs: eco %.9g vs scratch %.9g", o1.Total, o2.Total)
	}
	return compareState(st1, st2)
}

// checkCachedPairs holds the incremental arm's STA cache to a full
// timing.SeqPairs of the committed circuit: same pairs in the same order,
// Float64bits-equal delays.
func checkCachedPairs(st *eco.State) error {
	ffIdx := timing.FFIndex(len(st.Circuit.Cells), st.FFCells)
	got, err := st.STA.Pairs(nil, ffIdx)
	if err != nil {
		return fmt.Errorf("cached pairs: %v", err)
	}
	want, err := timing.SeqPairs(st.Circuit, st.TModel, ffIdx)
	if err != nil {
		return fmt.Errorf("full analysis of the committed circuit: %v", err)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d cached pairs vs %d from a full analysis", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.U != w.U || g.V != w.V || math.Float64bits(g.DMax) != math.Float64bits(w.DMax) ||
			math.Float64bits(g.DMin) != math.Float64bits(w.DMin) {
			return fmt.Errorf("cached pair %d = %+v vs %+v from a full analysis", i, g, w)
		}
	}
	return nil
}

// checkCachedWL holds the incremental arm's signal-wirelength cache, and
// the wirelength its outcome reports, to a full Circuit.SignalWL of the
// committed circuit, Float64bits-equal.
func checkCachedWL(st *eco.State, out *eco.Outcome) error {
	want := st.Circuit.SignalWL()
	bits := math.Float64bits
	if got := st.SignalWL.Total(); bits(got) != bits(want) {
		return fmt.Errorf("cached signal WL %.17g vs %.17g from a full measurement", got, want)
	}
	if bits(out.SignalWL) != bits(want) {
		return fmt.Errorf("reported signal WL %.17g vs %.17g from a full measurement", out.SignalWL, want)
	}
	return nil
}

// compareState checks committed positions and schedules of the two arms.
func compareState(st1, st2 *eco.State) error {
	c1, c2 := st1.Circuit, st2.Circuit
	if len(c1.Cells) != len(c2.Cells) {
		return fmt.Errorf("%d cells (eco) vs %d (scratch)", len(c1.Cells), len(c2.Cells))
	}
	for i := range c1.Cells {
		p1, p2 := c1.Cells[i].Pos, c2.Cells[i].Pos
		if !closeRel(p1.X, p2.X, 1e-9, 1e-9) || !closeRel(p1.Y, p2.Y, 1e-9, 1e-9) {
			return fmt.Errorf("cell %d placed at %v (eco) vs %v (scratch)", i, p1, p2)
		}
	}
	if len(st1.Sched) != len(st2.Sched) {
		return fmt.Errorf("schedule length %d (eco) vs %d (scratch)", len(st1.Sched), len(st2.Sched))
	}
	for i := range st1.Sched {
		if !closeRel(st1.Sched[i], st2.Sched[i], 1e-9, 1e-9) {
			return fmt.Errorf("schedule[%d] = %.12g (eco) vs %.12g (scratch), diff %.3g",
				i, st1.Sched[i], st2.Sched[i], math.Abs(st1.Sched[i]-st2.Sched[i]))
		}
	}
	return nil
}

// shrinkECO minimizes a failing ECO spec by greedily dropping deltas while
// the violation persists. Dropping a delta can invalidate a later one, but
// an invalid delta fails consistently in both arms (never a violation), so
// such drops simply don't stick.
func shrinkECO(in *ECOSpec, fails func(*ECOSpec) bool) *ECOSpec {
	cur := in.clone()
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.Deltas) && len(cur.Deltas) > 1; i++ {
			cand := cur.clone()
			cand.Deltas = append(cand.Deltas[:i], cand.Deltas[i+1:]...)
			if fails(cand) {
				cur = cand
				changed = true
				i--
			}
		}
	}
	return cur
}
