package exp

// RowT is one row of the per-circuit telemetry table: solver effort counters
// read from the flows' metrics snapshots (Options.Metrics must be on). The
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
// snapshots. Circuits whose runs carried no metrics (Options.Metrics off)
// are skipped; a fully disarmed run yields no rows.
func TelemetryTable(runs []*CircuitRun) []RowT {
	var rows []RowT
	for _, cr := range runs {
		fm := cr.Flow.Metrics
		if fm == nil {
			continue
		}
		row := RowT{
			Name:       cr.Bench.Name,
			CGSolves:   fm.Counter("placer.cg.solves"),
			CGIters:    fm.Counter("placer.cg.iters"),
			MCMFPaths:  fm.Counter("mcmf.paths"),
			TapQueries: fm.Counter("assign.tap.queries"),
			FlowSec:    fm.SpanSeconds("core.Run"),
		}
		if im := cr.ILPFlow.Metrics; im != nil {
			row.Pivots = im.Counter("lp.simplex.pivots")
			row.BBNodes = im.Counter("lp.bb.nodes")
			row.ILPSec = im.SpanSeconds("core.Run")
		}
		rows = append(rows, row)
	}
	return rows
}
