package exp

import (
	"bytes"
	"testing"
)

// TestMetricsCountersDeterministicAcrossWorkerCounts extends the determinism
// gate to the observability layer: the counter section of each flow's metrics
// snapshot must be bit-identical whether the suite ran serially or on 8
// workers. Gauges (last-write-wins) and stats (budget stops) are
// legitimately scheduling-dependent and are excluded — that three-way split
// is the metric-class contract of internal/obs. Every flow is traced; no
// option arms it.
func TestMetricsCountersDeterministicAcrossWorkerCounts(t *testing.T) {
	runMetrics := func(workers int) []*CircuitRun {
		runs, err := RunAll(detOpt(workers))
		if err != nil {
			t.Fatal(err)
		}
		return runs
	}
	serial := runMetrics(1)
	parallel := runMetrics(8)
	if len(serial) != len(parallel) {
		t.Fatalf("run counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Flow.Metrics == nil || s.ILPFlow.Metrics == nil {
			t.Fatalf("%s: serial run carries no metrics", s.Bench.Name)
		}
		// The skew kernel's work counters, the max-slack and min-Delta
		// witness cycles and the assignment's preload split ride in the
		// compared payload; they must actually be recorded for the
		// comparison to cover them.
		for _, name := range []string{
			"skew.probes", "skew.rounds", "skew.edge_visits", "skew.maxslack.cycles", "skew.mindelta.cycles",
			"assign.mincost.preloaded", "assign.mincost.deficit",
		} {
			if s.Flow.Metrics.Counter(name) <= 0 {
				t.Errorf("%s: network-flow run recorded no %s", s.Bench.Name, name)
			}
		}
		if got, want := p.Flow.Metrics.CountersJSON(), s.Flow.Metrics.CountersJSON(); !bytes.Equal(got, want) {
			t.Errorf("%s: network-flow counters differ across worker counts\nserial:   %s\nparallel: %s",
				s.Bench.Name, want, got)
		}
		if got, want := p.ILPFlow.Metrics.CountersJSON(), s.ILPFlow.Metrics.CountersJSON(); !bytes.Equal(got, want) {
			t.Errorf("%s: ILP counters differ across worker counts\nserial:   %s\nparallel: %s",
				s.Bench.Name, want, got)
		}
	}
}

// TestTelemetryTableWithoutOptIn: every flow run carries its own registry,
// so the telemetry table has one populated row per circuit with no option
// set.
func TestTelemetryTableWithoutOptIn(t *testing.T) {
	runs, err := RunAll(Options{Scale: 0.08, Circuits: []string{"s9234", "s5378"}})
	if err != nil {
		t.Fatal(err)
	}
	rows := TelemetryTable(runs)
	if len(rows) != len(runs) || len(rows) != 2 {
		t.Fatalf("%d telemetry rows for %d circuits, want 2", len(rows), len(runs))
	}
	for i, r := range rows {
		if r.Name != runs[i].Bench.Name {
			t.Errorf("row %d is %s, want %s", i, r.Name, runs[i].Bench.Name)
		}
		if r.CGSolves <= 0 || r.TapQueries <= 0 || r.Pivots <= 0 || r.FlowSec <= 0 || r.ILPSec <= 0 {
			t.Errorf("%s: empty telemetry row %+v", r.Name, r)
		}
	}
}
