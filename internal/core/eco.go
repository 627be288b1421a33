package core

import (
	"fmt"

	"rotaryclk/internal/eco"
	"rotaryclk/internal/netlist"
)

// ECOResult is the outcome of one ApplyECO call plus the full quality
// metrics of the post-edit (or, when Degraded, the restored) design.
type ECOResult struct {
	Outcome *eco.Outcome
	Final   Metrics
}

// NewECOState captures a completed Run as live ECO state, ready for
// incremental re-optimization with ApplyECO. The circuit must be the one the
// run placed (its positions are the state's baseline) and res must carry an
// assignment — a Degraded result that stopped before the base case cannot
// seed ECO. cfg should be the configuration the run used; its rotary and
// timing constants and Parallelism carry over so edits re-solve the same
// problem the flow solved. As in Run, cfg.System may supply a prebuilt
// template system to fork instead of assembling the connectivity from
// scratch. The first edit re-solves only the tapping rows its changes
// touch: res.Assign carries the candidate matrix the run solved over.
func NewECOState(c *netlist.Circuit, cfg Config, res *Result) (*eco.State, error) {
	cfg.normalize()
	if res == nil || res.Assign == nil || res.Array == nil || len(res.FFCells) == 0 {
		return nil, fmt.Errorf("core: ECO state needs a completed result with an assignment")
	}
	if len(res.Schedule) != len(res.FFCells) || len(res.Assign.Ring) != len(res.FFCells) {
		return nil, fmt.Errorf("core: result schedule/assignment out of step with its flip-flop list")
	}
	sys, se := placementState(c, cfg, cfg.Obs)
	if se != nil {
		return nil, fmt.Errorf("core: ECO state: %w", se.Err)
	}
	return &eco.State{
		Circuit:     c,
		Sys:         sys,
		Array:       res.Array,
		FFCells:     append([]int(nil), res.FFCells...),
		Sched:       append([]float64(nil), res.Schedule...),
		Assign:      res.Assign,
		WorkSlack:   res.WorkSlack,
		Params:      cfg.Params,
		TModel:      cfg.TModel,
		Parallelism: cfg.Parallelism,
	}, nil
}

// ApplyECO absorbs a batch of netlist deltas into the state with bounded
// recompute (see eco.Apply for the delta semantics, rollback guarantees and
// the strict/degraded split) and re-measures the design, taking the signal
// wirelength from the outcome (eco.State's cache, bit-equal to a full
// measurement) instead of walking every net again. When opt.Stop or
// opt.Obs are nil they inherit cfg's, so serving-layer deadlines and
// telemetry thread through unchanged.
func ApplyECO(st *eco.State, deltas []eco.Delta, cfg Config, opt eco.Options) (*ECOResult, error) {
	cfg.normalize()
	if opt.Obs == nil {
		opt.Obs = cfg.Obs
	}
	if opt.Stop == nil {
		opt.Stop = cfg.Stop
	}
	out, err := eco.Apply(st, deltas, opt)
	if err != nil {
		return nil, err
	}
	asg := out.Assign
	if asg == nil {
		asg = st.Assign
	}
	r := &ECOResult{Outcome: out}
	if asg != nil {
		r.Final = measure(st.Circuit, cfg, asg, len(out.FFCells), out.SignalWL)
	}
	return r, nil
}
