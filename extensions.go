package rotaryclk

import (
	"rotaryclk/internal/assign"
	"rotaryclk/internal/clocktree"
	"rotaryclk/internal/congestion"
	"rotaryclk/internal/core"
	"rotaryclk/internal/localtree"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/timing"
	"rotaryclk/internal/variation"
)

// Assignment is the flip-flop-to-ring assignment of a flow result.
type Assignment = assign.Assignment

// Clock tree baselines (the conventional-clocking references of Table II).
type (
	// TreeNode is a vertex of the pairing clock tree.
	TreeNode = clocktree.Node
	// ZSTreeNode is a vertex of the exact zero-skew clock tree.
	ZSTreeNode = clocktree.ZSNode
)

// BuildClockTree constructs a conventional clock tree over the sinks by
// recursive nearest-neighbor pairing.
func BuildClockTree(sinks []Point) *TreeNode { return clocktree.Build(sinks) }

// BuildZeroSkewTree constructs an exact zero-skew clock tree (deferred-merge
// embedding with wire snaking) over the sinks.
func BuildZeroSkewTree(sinks []Point) *ZSTreeNode { return clocktree.BuildDME(sinks) }

// TreeAvgSourceSinkPath returns the mean root-to-sink wirelength of a
// pairing tree — the paper's Table II "PL" metric.
func TreeAvgSourceSinkPath(root *TreeNode) float64 { return clocktree.AvgSourceSinkPath(root) }

// Variability study (the paper's Section I motivation).
type (
	// VarPair identifies two flip-flop indices whose skew is monitored.
	VarPair = variation.Pair
	// VarStats summarizes sampled skew deviations.
	VarStats = variation.Stats
)

// RotarySkewVariation samples the skew deviation of a rotary assignment
// under wire-process variation: only the tapping stubs (plus residual ring
// jitter) are exposed, the source of rotary clocking's robustness. The
// model is fixed (500 samples, 10% wire sigma, 1.5 ps ring jitter); seed
// seeds the sampler.
func RotarySkewVariation(p Params, asg *Assignment, pairs []VarPair, seed int64) (VarStats, error) {
	return variation.RotarySkew(p, asg, pairs, seed)
}

// TreeSkewVariation samples the skew deviation of a conventional buffered
// clock tree over the same sinks (10% wire sigma, 8% buffer sigma, one
// 35 ps buffer per 450 um).
func TreeSkewVariation(p Params, root *TreeNode, numSinks int, pairs []VarPair, seed int64) (VarStats, error) {
	return variation.TreeSkew(p, root, numSinks, pairs, seed)
}

// Local clock trees (Section IX future work #1).
type (
	// LocalTreeOptions tunes flip-flop clustering.
	LocalTreeOptions = localtree.Options
	// LocalTreeResult reports the wirelength saved by shared trunks.
	LocalTreeResult = localtree.Result
)

// BuildLocalTrees clusters the flip-flops of an assignment into shared
// local clock trees, preserving every scheduled delay exactly, and reports
// the tapping wirelength saved.
func BuildLocalTrees(arr *Array, asg *Assignment, ffPos []Point, targets []float64, opt LocalTreeOptions) (*LocalTreeResult, error) {
	return localtree.Build(arr, asg, ffPos, targets, opt)
}

// RingSweepPoint is one candidate ring count of AutoRings with its metrics.
type RingSweepPoint = core.RingSweepPoint

// AutoRings treats the ring count as an optimization variable (Section IX
// future work #2): it runs the flow for each candidate count on a fresh copy
// of the circuit and returns the best count with all sweep points.
func AutoRings(gen func() (*Circuit, error), cfg Config, counts []int) (int, []RingSweepPoint, error) {
	wrapped := func() (*netlist.Circuit, error) { return gen() }
	return core.AutoRings(wrapped, cfg, counts)
}

// Timing analysis access: sequential adjacency extraction for users who want
// to drive the skew machinery directly.
type (
	// TimingModel is the STA calibration.
	TimingModel = timing.Model
	// TimingPair is one sequentially adjacent flip-flop pair with its
	// extreme combinational delays.
	TimingPair = timing.Pair
	// TimingResult is the output of AnalyzeTiming.
	TimingResult = timing.Result
)

// DefaultTimingModel returns the 100 nm-class STA calibration.
func DefaultTimingModel() TimingModel { return timing.DefaultModel() }

// AnalyzeTiming runs Elmore static timing analysis over a placed circuit and
// extracts the sequentially adjacent flip-flop pairs with D_max/D_min.
func AnalyzeTiming(c *Circuit, m TimingModel) (*TimingResult, error) {
	return timing.Analyze(c, m)
}

// Audit verifies every contract a completed flow result promises — legal
// placement, taps on their rings realizing the schedule modulo the period,
// timing constraints of the final placement satisfied at the reported
// working slack, consistent bookkeeping. It returns nil for a sound design.
func Audit(c *Circuit, cfg Config, res *Result) error { return core.Audit(c, cfg, res) }

// CongestionMap is a probabilistic routing-demand grid over the die.
type CongestionMap = congestion.Map

// CongestionStats summarizes a congestion map against per-bin capacity.
type CongestionStats = congestion.Stats

// EstimateCongestion builds the routing-congestion map of a placed circuit
// on a grid x grid overlay (the bounding-box demand model).
func EstimateCongestion(c *Circuit, grid int) (*CongestionMap, error) {
	return congestion.Estimate(c, grid)
}
