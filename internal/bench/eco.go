// ECO edit-latency harness: the headline benchmark of the incremental
// re-optimization path (internal/eco). One base flow runs at the requested
// size, then a stream of single-delta random edits is absorbed through
// core.ApplyECO, each timed by its span; the claim under test is edit
// latency vs a full from-scratch re-run of the flow on the same edited
// netlist (target >=10x at 50k cells for <=1% dirty cells). cmd/rotaryscale
// records the 50k row in the eco section of BENCH_scaling.json beside the
// size sweep.
package bench

import (
	"fmt"
	"math"
	"math/rand"

	"rotaryclk/internal/core"
	"rotaryclk/internal/eco"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/timing"
)

// ECOOptions configures one edit-latency measurement.
type ECOOptions struct {
	// Cells sizes the synthetic circuit (default 50000).
	Cells int
	// Edits is the number of sequential single-delta edits applied to the
	// live state (default 20).
	Edits int
	// Seed feeds the generator and the delta stream.
	Seed int64
	// Log, when non-nil, receives one progress line per edit.
	Log func(format string, args ...any)
}

const (
	// ecoDeltasPerEdit is the batch size of each edit: the single-edit
	// latency the ECO mode exists for.
	ecoDeltasPerEdit = 1
	// ecoIters bounds the flow iterations of the base run and the scratch
	// re-run (the benchmark/serving convention).
	ecoIters = 2
)

func (o *ECOOptions) normalize() {
	if o.Cells <= 0 {
		o.Cells = 50000
	}
	if o.Edits <= 0 {
		o.Edits = 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// ECOPoint is one row of the edit-latency benchmark, recorded in the eco
// section of BENCH_scaling.json.
type ECOPoint struct {
	Cells         int `json:"cells"`
	FFs           int `json:"ffs"`
	Rings         int `json:"rings"`
	Edits         int `json:"edits"`
	DeltasPerEdit int `json:"deltas_per_edit"`
	NoOps         int `json:"noops"`

	// DirtyCellFrac is the mean fraction of cells the dirty-region solve
	// re-placed per edit — the "<=1% dirty" side of the headline claim.
	DirtyCellFrac float64 `json:"dirty_cell_frac"`

	// Times come from spans: the core.Run span of the base flow and of the
	// scratch flow on the edited netlist, and each edit's core.ApplyECO span.
	BaseNS    int64 `json:"base_flow_ns"`  // one-time base flow
	FullNS    int64 `json:"full_rerun_ns"` // scratch flow on the edited netlist
	EcoMeanNS int64 `json:"eco_mean_ns"`   // mean per-edit apply
	EcoMaxNS  int64 `json:"eco_max_ns"`    // worst per-edit apply

	// Speedup is FullNS / EcoMeanNS — the headline ratio.
	Speedup float64 `json:"speedup"`
	// Checked records that CompareECOArms held every edit to the
	// from-scratch arm (a violation is an error). RunECOBench always runs
	// it.
	Checked bool `json:"checked"`
	// STASources totals the flip-flop sources the incremental arm's timing
	// re-propagated over all edits (counter eco.sta.sources). The state
	// starts with its cache built, so every edit is a scoped update and
	// keeps it far below FFs x Edits.
	STASources int64 `json:"sta_sources,omitempty"`
}

// RunECOBench measures ECO edit latency at one size. It also runs a
// from-scratch arm (eco.Options.Scratch) beside the incremental arm on a
// cloned state and holds every edit to CompareECOArms, the
// differential oracle's full equivalence contract, outside the timed spans,
// so the speedup number can never come from skipped work.
func RunECOBench(opt ECOOptions) (*ECOPoint, error) {
	opt.normalize()
	c, err := netlist.Generate(netlist.GenSpec{
		Name:      fmt.Sprintf("eco%d", opt.Cells),
		Cells:     opt.Cells,
		FlipFlops: opt.Cells / 10,
		Seed:      opt.Seed + int64(opt.Cells),
	})
	if err != nil {
		return nil, err
	}
	cfg := core.Config{NumRings: ringsFor(opt.Cells), MaxIters: ecoIters}

	res, baseNS, err := timedRun(c, cfg)
	if err != nil {
		return nil, fmt.Errorf("base flow: %w", err)
	}
	if res.Degraded {
		return nil, fmt.Errorf("base flow degraded; no clean state to edit")
	}
	st, err := core.NewECOState(c, cfg, res)
	if err != nil {
		return nil, err
	}
	stScratch, err := core.NewECOState(c.Clone(), cfg, res)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(opt.Seed + 31*int64(opt.Cells)))
	pt := &ECOPoint{
		Cells: opt.Cells, FFs: len(st.FFCells), Rings: len(st.Array.Rings),
		Edits: opt.Edits, DeltasPerEdit: ecoDeltasPerEdit,
		BaseNS: baseNS, Checked: true,
	}
	var ecoTotal, ecoMax int64
	var dirtyFrac float64
	for e := 0; e < opt.Edits; e++ {
		deltas := eco.RandomDeltas(rng, st.Circuit, pt.Rings, ecoDeltasPerEdit)
		reg := obs.NewRegistry()
		out, err := core.ApplyECO(st, deltas, cfg, eco.Options{Obs: reg})
		if err != nil {
			return nil, fmt.Errorf("edit %d: %w", e, err)
		}
		if out.Outcome.Degraded {
			return nil, fmt.Errorf("edit %d degraded: %v", e, out.Outcome.Events)
		}
		snap := reg.Snapshot()
		d := spanNS(snap, "core.ApplyECO")
		ecoTotal += d
		ecoMax = max(ecoMax, d)
		pt.STASources += snap.Counter("eco.sta.sources")
		pt.NoOps += out.Outcome.NoOps
		dirtyFrac += float64(out.Outcome.DirtyCells) / float64(len(st.Circuit.Cells))
		out2, err := core.ApplyECO(stScratch, deltas, cfg, eco.Options{Scratch: true})
		if err != nil {
			return nil, fmt.Errorf("edit %d scratch arm: %w", e, err)
		}
		if err := CompareECOArms(st, stScratch, out.Outcome, out2.Outcome); err != nil {
			return nil, fmt.Errorf("edit %d: eco/scratch divergence: %w", e, err)
		}
		if opt.Log != nil {
			opt.Log("edit %3d: %8.2f ms, %d dirty cells",
				e, float64(d)/1e6, out.Outcome.DirtyCells)
		}
	}
	pt.DirtyCellFrac = dirtyFrac / float64(opt.Edits)
	pt.EcoMeanNS = ecoTotal / int64(opt.Edits)
	pt.EcoMaxNS = ecoMax

	// The comparison target: what absorbing the edits would have cost
	// without the ECO path — a full flow re-run on the edited netlist.
	if _, pt.FullNS, err = timedRun(st.Circuit.Clone(), cfg); err != nil {
		return nil, fmt.Errorf("scratch re-run: %w", err)
	}
	if pt.EcoMeanNS > 0 {
		pt.Speedup = float64(pt.FullNS) / float64(pt.EcoMeanNS)
	}
	return pt, nil
}

// timedRun runs the flow on c under a fresh registry and returns the result
// with the duration of its core.Run span.
func timedRun(c *netlist.Circuit, cfg core.Config) (*core.Result, int64, error) {
	cfg.Obs = obs.NewRegistry()
	res, err := core.Run(c, cfg)
	if err != nil {
		return nil, 0, err
	}
	return res, spanNS(res.Metrics, "core.Run"), nil
}

// spanNS is the summed duration of the spans named name, in nanoseconds.
func spanNS(s *obs.Snapshot, name string) int64 {
	return int64(s.SpanSeconds(name) * 1e9)
}

// CompareECOArms is the ECO equivalence contract for one applied edit: the
// incremental arm (st1, with outcome o1) against the scratch arm (st2, o2)
// that applied the same deltas to an equal state. Both arms must agree on
// degradation; the incremental arm's cached timing pairs must be bit-equal
// to a full analysis of its committed circuit and its cached signal
// wirelength bit-equal to a full Circuit.SignalWL; totals must agree within
// 1e-6 relative (the patched assignment is cost-equal, not tie-equal), and
// positions and schedules within 1e-9. It returns nil when they agree.
// RunECOBench holds every timed edit to it, and the differential oracle's
// eco/scratch check every delta of its campaign.
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

// closeRel reports |a-b| <= absTol + relTol*max(|a|,|b|). NaN on either
// side never compares close.
func closeRel(a, b, relTol, absTol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= absTol+relTol*m
}
