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
	"rotaryclk/internal/bench"
	"rotaryclk/internal/core"
	"rotaryclk/internal/eco"
	"rotaryclk/internal/netlist"
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
// then pass bench.CompareECOArms. A base flow that fails or degrades yields no
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
		if err := bench.CompareECOArms(st1, st2, o1, o2); err != nil {
			return violationf(name, seed, "delta %d %s: %v", di, d, err)
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
