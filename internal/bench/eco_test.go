package bench

import (
	"os"
	"testing"
)

// TestECOBenchPoint runs the edit-latency harness at a small size with the
// inline patch-vs-scratch equivalence check armed: the harness must survive
// a short random edit stream, report sane numbers, and prove the two arms
// equivalent after every edit.
func TestECOBenchPoint(t *testing.T) {
	pt, err := RunECOBench(ECOOptions{Cells: 2000, Edits: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Cells != 2000 || pt.Edits != 4 || !pt.Checked {
		t.Errorf("point header %+v", pt)
	}
	if pt.EcoMeanNS <= 0 || pt.FullNS <= 0 || pt.BaseNS <= 0 {
		t.Errorf("non-positive timings: %+v", pt)
	}
	if pt.Speedup <= 0 {
		t.Errorf("speedup %v, want > 0", pt.Speedup)
	}
	if pt.DirtyCellFrac < 0 || pt.DirtyCellFrac > 1 {
		t.Errorf("dirty fraction %v outside [0, 1]", pt.DirtyCellFrac)
	}
}

// TestECOSmoke20k is the CI eco smoke (`scripts/ci.sh eco`): 20 random
// single-delta edits at 20k cells, every edit proven equivalent to the
// scratch arm, the mean edit at least 5x faster than a full re-run, and the
// scoped timing re-propagating fewer sources over all the edits than half
// of one full rebuild.
// Gated behind an env var so tier-1 `go test` stays fast.
func TestECOSmoke20k(t *testing.T) {
	if os.Getenv("ROTARY_ECO_SMOKE") == "" {
		t.Skip("set ROTARY_ECO_SMOKE=1 to run the 20k ECO smoke")
	}
	pt, err := RunECOBench(ECOOptions{Cells: 20_000, Edits: 20, Seed: 1, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Speedup < 5 {
		t.Fatalf("eco speedup %.1fx at 20k cells, want >= 5x (eco mean %v ns, full %v ns)",
			pt.Speedup, pt.EcoMeanNS, pt.FullNS)
	}
	if pt.DirtyCellFrac > 0.01 {
		t.Errorf("dirty fraction %.3f%% exceeds the 1%% bound", 100*pt.DirtyCellFrac)
	}
	// Scoped timing: the state starts with its STA cache built, so every
	// edit re-propagates only its dirty sources: 449 over the 20 edits of
	// seed 1. The bound, half the flip-flop count (1,000 sources), is about
	// twice that, and one edit that rebuilt the cache in full would
	// re-propagate every flip-flop on its own.
	t.Logf("eco.sta.sources = %d over %d edits of %d flip-flops", pt.STASources, pt.Edits, pt.FFs)
	if pt.STASources == 0 || 2*pt.STASources > int64(pt.FFs) {
		t.Errorf("eco.sta.sources = %d over %d edits, want at most half of one full rebuild (%d flip-flops)",
			pt.STASources, pt.Edits, pt.FFs)
	}
}
