// Timing-driven placement support (ROADMAP item 3): per-iteration critical
// path extraction and net-weight scale maintenance for the place<->skew loop,
// plus the worst-slack measurement the experiment tables report.
package core

import (
	"fmt"
	"math"

	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/timing"
)

// timingReweight updates the per-net criticality scales for one loop
// iteration: decay every scale toward 1 (exponential history), extract the
// timingPaths lowest-slack pairs under the current schedule, and boost the
// nets on their D_max paths by TimingBoost tapered linearly with rank,
// capped at timingMaxW. A failed extraction (combinational cycle — possible
// only if the circuit changed under us) is recorded as a stage-6 event and
// leaves the scales at their previous values.
//
// The three constants were picked once by a small sweep on the Table VIII
// circuits (DESIGN.md section 15.2).
func timingReweight(c *netlist.Circuit, cfg *Config, res *Result, ffIdx []int, sched, scale []float64, iter int, reg *obs.Registry) {
	slackOf := func(p timing.Pair) float64 {
		x := sched[ffIdx[p.From]] - sched[ffIdx[p.To]]
		return cfg.TModel.SlackUnder(p, x, cfg.Params.Period)
	}
	const (
		timingPaths = 8   // critical paths reweighted per iteration
		timingDecay = 0.3 // fraction of the accumulated boost a net keeps per iteration
		timingMaxW  = 4   // cap on any net's weight scale
	)
	paths, err := timing.ExtractCritical(c, cfg.TModel, slackOf, timingPaths)
	if err != nil {
		res.event(6, iter, classify(err), "critical-path extraction failed; keeping previous net weights", err)
		return
	}
	for i := range scale {
		scale[i] = 1 + timingDecay*(scale[i]-1)
	}
	boost := cfg.TimingBoost
	if boost < 0 {
		boost = 0 // identity mode: scales stay exactly 1.0
	}
	k := len(paths)
	boosts := 0
	for j, p := range paths {
		crit := float64(k-j) / float64(k)
		for _, ni := range p.Nets {
			s := scale[ni] + boost*crit
			if s > timingMaxW {
				s = timingMaxW
			}
			scale[ni] = s
			boosts++
		}
	}
	reg.Add("core.timing.extracts", 1)
	reg.Add("core.timing.paths", int64(k))
	reg.Add("core.timing.boosts", int64(boosts))
	if k > 0 {
		reg.Gauge("core.timing.worst_slack_ps", paths[0].Slack)
	}
}

// WorstSlack re-analyzes the circuit's timing at its current placement and
// returns the minimum setup/hold slack of the result's schedule over all
// sequential pairs (Model.SlackUnder at the configured period). It is the
// headline measurement of the timing-driven mode: negative means the
// schedule violates a Fishburn constraint, larger is better. A circuit with
// no sequential pairs returns +Inf.
func WorstSlack(c *netlist.Circuit, cfg Config, res *Result) (float64, error) {
	cfg.normalize()
	sta, err := timing.Analyze(c, cfg.TModel)
	if err != nil {
		return 0, fmt.Errorf("core: worst slack: %w", err)
	}
	ffIdx := timing.FFIndex(len(c.Cells), res.FFCells)
	worst := math.Inf(1)
	for _, p := range sta.Pairs {
		i, j := ffIdx[p.From], ffIdx[p.To]
		if i < 0 || j < 0 || i >= len(res.Schedule) || j >= len(res.Schedule) {
			return 0, fmt.Errorf("core: worst slack: schedule does not cover pair %d->%d", p.From, p.To)
		}
		x := res.Schedule[i] - res.Schedule[j]
		if s := cfg.TModel.SlackUnder(p, x, cfg.Params.Period); s < worst {
			worst = s
		}
	}
	return worst, nil
}
