package exp

import (
	"bytes"
	"testing"
)

// TestMetricsCountersDeterministicAcrossWorkerCounts extends the determinism
// gate to the observability layer: the counter section of each flow's metrics
// snapshot must be bit-identical whether the suite ran serially or on 8
// workers. Gauges (last-write-wins) and stats (worker utilization) are legitimately scheduling-dependent and are excluded — that
// three-way split is the metric-class contract of internal/obs.
func TestMetricsCountersDeterministicAcrossWorkerCounts(t *testing.T) {
	runMetrics := func(workers int) []*CircuitRun {
		opt := detOpt(workers)
		opt.Metrics = true
		runs, err := RunAll(opt)
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
		// The skew kernel's work counters, the max-slack witness cycles and
		// the assignment's preload split ride in the compared payload; they
		// must actually be recorded for the comparison to cover them.
		for _, name := range []string{
			"skew.probes", "skew.rounds", "skew.edge_visits", "skew.maxslack.cycles",
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
