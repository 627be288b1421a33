package exp

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"rotaryclk/internal/bench"
)

func detOpt(workers int) Options {
	return Options{
		Scale:       0.12,
		ILPBudget:   2 * time.Second,
		Circuits:    []string{"s9234"},
		Parallelism: workers,
	}
}

// stripCPU drops the metrics snapshots, whose span trees are wall clock and
// so the only values allowed to differ between worker counts. Their
// counters are compared separately by
// TestMetricsCountersDeterministicAcrossWorkerCounts.
func stripCPU(runs []*CircuitRun) {
	for _, cr := range runs {
		cr.Flow.Metrics, cr.ILPFlow.Metrics = nil, nil
	}
}

// TestRunAllDeterministicAcrossWorkerCounts is the end-to-end determinism
// gate: the whole suite run — placements, assignments, schedules, and every
// table row — must be identical whether it ran serially or on 8 workers.
func TestRunAllDeterministicAcrossWorkerCounts(t *testing.T) {
	serial, err := RunAll(detOpt(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunAll(detOpt(8))
	if err != nil {
		t.Fatal(err)
	}
	stripCPU(serial)
	stripCPU(parallel)

	if len(serial) != len(parallel) {
		t.Fatalf("run counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if !reflect.DeepEqual(s.FFPos, p.FFPos) {
			t.Errorf("%s: flip-flop positions differ", s.Bench.Name)
		}
		if !reflect.DeepEqual(s.Flow.Assign, p.Flow.Assign) {
			t.Errorf("%s: network-flow assignment differs", s.Bench.Name)
		}
		if !reflect.DeepEqual(s.Flow.Schedule, p.Flow.Schedule) {
			t.Errorf("%s: schedule differs", s.Bench.Name)
		}
		if !reflect.DeepEqual(s.Flow, p.Flow) {
			t.Errorf("%s: network-flow result differs", s.Bench.Name)
		}
		if !reflect.DeepEqual(s.ILPFlow, p.ILPFlow) {
			t.Errorf("%s: ILP result differs", s.Bench.Name)
		}
	}

	// Table rows (CPU columns excluded) must match bit-for-bit.
	if !reflect.DeepEqual(TableII(serial), TableII(parallel)) {
		t.Error("Table II rows differ")
	}
	s3, p3 := TableIII(serial), TableIII(parallel)
	for i := range s3 {
		s3[i].CPU, p3[i].CPU = 0, 0
	}
	if !reflect.DeepEqual(s3, p3) {
		t.Error("Table III rows differ")
	}
	s4, p4 := TableIV(serial), TableIV(parallel)
	for i := range s4 {
		s4[i].OptCPU, p4[i].OptCPU = 0, 0
		s4[i].PlaceCPU, p4[i].PlaceCPU = 0, 0
	}
	if !reflect.DeepEqual(s4, p4) {
		t.Error("Table IV rows differ")
	}
	if !reflect.DeepEqual(TableV(serial), TableV(parallel)) {
		t.Error("Table V rows differ")
	}
	if !reflect.DeepEqual(TableVI(serial), TableVI(parallel)) {
		t.Error("Table VI rows differ")
	}
	if !reflect.DeepEqual(TableVII(serial), TableVII(parallel)) {
		t.Error("Table VII rows differ")
	}
}

// TestConcurrentRunCircuitRaceStress drives independent runCircuit calls
// from multiple goroutines; under `go test -race` this sweeps the parallel
// sites (x/y axis solves, candidate matrix, workspace pool) for data
// races while they also run their own internal workers.
func TestConcurrentRunCircuitRaceStress(t *testing.T) {
	circuits := []bench.Circuit{
		{Name: "rs-a", Cells: 220, FlipFlops: 24, Nets: 200, Rings: 4, Seed: 101},
		{Name: "rs-b", Cells: 240, FlipFlops: 28, Nets: 210, Rings: 4, Seed: 202},
		{Name: "rs-c", Cells: 260, FlipFlops: 32, Nets: 220, Rings: 9, Seed: 303},
	}
	var wg sync.WaitGroup
	errs := make([]error, len(circuits))
	for i, b := range circuits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = runCircuit(b, Options{})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("%s: %v", circuits[i].Name, err)
		}
	}
}

// BenchmarkRunAllSuite is the headline kernel benchmark: the full two-flow
// suite run, serial vs parallel. The parallel/serial ratio read off this
// benchmark on a multicore box is the PR's wall-clock speedup evidence.
func BenchmarkRunAllSuite(b *testing.B) {
	opt := Options{
		Scale:     0.12,
		ILPBudget: time.Second,
		Circuits:  []string{"s9234", "s5378"},
	}
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			o := opt
			o.Parallelism = cfg.workers
			for i := 0; i < b.N; i++ {
				if _, err := RunAll(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
