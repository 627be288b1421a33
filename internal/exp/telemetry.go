package exp

// RowT is one row of the per-circuit telemetry table: solver effort counters
// read from the flows' metrics snapshots (every flow run is traced). The
// counter columns are deterministic across worker counts; the seconds are
// wall-clock and are not compared by the determinism harness.
type RowT struct {
	Name       string
	CGSolves   int64   // placer CG solves, network-flow run
	CGIters    int64   // total CG iterations, network-flow run
	MCMFPaths  int64   // augmenting paths, network-flow run
	TapQueries int64   // tapping-point queries, network-flow run
	Pivots     int64   // simplex pivots, ILP run
	BBNodes    int64   // branch-and-bound nodes, ILP run
	FlowSec    float64 // core.Run span seconds, network-flow run
	ILPSec     float64 // core.Run span seconds, ILP run
}

// TelemetryTable derives solver-effort rows from each circuit's metrics
// snapshots, one row per circuit.
func TelemetryTable(runs []*CircuitRun) []RowT {
	var rows []RowT
	for _, cr := range runs {
		fm, im := cr.Flow.Metrics, cr.ILPFlow.Metrics
		rows = append(rows, RowT{
			Name:       cr.Bench.Name,
			CGSolves:   fm.Counter("placer.cg.solves"),
			CGIters:    fm.Counter("placer.cg.iters"),
			MCMFPaths:  fm.Counter("mcmf.paths"),
			TapQueries: fm.Counter("assign.tap.queries"),
			Pivots:     im.Counter("lp.simplex.pivots"),
			BBNodes:    im.Counter("lp.bb.nodes"),
			FlowSec:    fm.SpanSeconds("core.Run"),
			ILPSec:     im.SpanSeconds("core.Run"),
		})
	}
	return rows
}
