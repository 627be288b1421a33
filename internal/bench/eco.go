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
	"math/rand"

	"rotaryclk/internal/core"
	"rotaryclk/internal/eco"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/oracle"
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
	// Checked records that oracle.CompareECOArms held every edit to the
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
// cloned state and holds every edit to oracle.CompareECOArms, the
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
		if err := oracle.CompareECOArms(st, stScratch, out.Outcome, out2.Outcome); err != nil {
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
