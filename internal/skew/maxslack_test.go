package skew

import (
	"math/rand"
	"runtime"
	"testing"

	"rotaryclk/internal/obs"
)

// TestMaxSlackKnownGraphs: on hand-solvable systems the cycle iteration
// lands exactly on the critical cycle's mean, counting one witness cycle per
// lowering step, and a system without pairs stays at the T cap.
func TestMaxSlackKnownGraphs(t *testing.T) {
	const T, setup, hold = 1000.0, 30.0, 15.0
	for _, tc := range []struct {
		name   string
		n      int
		pairs  []SeqPair
		want   float64
		cycles int64
	}{
		{"no flip-flops", 0, nil, T, 0},
		{"no pairs", 3, nil, T, 0},
		// One pair: the long/short 2-cycle has mean
		// ((T - 400 - setup) + (100 - hold)) / 2.
		{"pair", 2, []SeqPair{{U: 0, V: 1, DMax: 400, DMin: 100}}, (570.0 + 85) / 2, 1},
		// A loop 0->1->0 of long paths: mean T - setup - (600 + 800) / 2.
		// The first witness is the second pair's own long/short 2-cycle
		// (mean 427.5), the second the long-path loop.
		{"loop", 2, []SeqPair{{U: 0, V: 1, DMax: 600, DMin: 550}, {U: 1, V: 0, DMax: 800, DMin: 700}}, T - setup - 700, 2},
	} {
		reg := obs.NewRegistry()
		M, sched, err := MaxSlack(nil, reg, tc.n, tc.pairs, T, setup, hold)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if M != tc.want {
			t.Errorf("%s: M = %v, want %v", tc.name, M, tc.want)
		}
		if v := Verify(sched, Constraints(nil, tc.pairs, T, M, setup, hold)); len(sched) != tc.n || v > Eps {
			t.Errorf("%s: schedule %v violates its constraints by %v", tc.name, sched, v)
		}
		if got := reg.Counter("skew.maxslack.cycles"); got != tc.cycles {
			t.Errorf("%s: skew.maxslack.cycles = %d, want %d", tc.name, got, tc.cycles)
		}
	}
}

// sparsePairs draws a sequential graph with k fan-out pairs per flip-flop.
func sparsePairs(rng *rand.Rand, n, k int) []SeqPair {
	pairs := make([]SeqPair, 0, n*k)
	for u := 0; u < n; u++ {
		for j := 0; j < k; j++ {
			dmin := 50 + rng.Float64()*200
			pairs = append(pairs, SeqPair{U: u, V: rng.Intn(n), DMax: dmin + rng.Float64()*400, DMin: dmin})
		}
	}
	return pairs
}

// TestMaxSlackLinearMemory: a sparse 10,000-FF instance solves in memory
// linear in its size. Karp's dynamic program would keep 10,001 rows of
// 10,000 floats here, 800 MB; the cycle iteration must stay under 64 MB of
// total allocation and return a schedule that holds at its own slack.
func TestMaxSlackLinearMemory(t *testing.T) {
	const n = 10000
	pairs := sparsePairs(rand.New(rand.NewSource(46)), n, 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	M, sched, err := MaxSlack(nil, nil, n, pairs, 1000, 30, 15)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("M* = %.6g ps, %.1f MB allocated", M, float64(alloc)/(1<<20))
	if alloc >= 64<<20 {
		t.Errorf("max-slack solve allocated %d MB, want < 64 MB", alloc>>20)
	}
	if v := Verify(sched, Constraints(nil, pairs, 1000, M, 30, 15)); v > Eps {
		t.Errorf("schedule violates its constraints at M=%v by %v", M, v)
	}
}

func BenchmarkMaxSlack(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	pairs := buildRandomPairs(rng, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MaxSlack(nil, nil, 40, pairs, 1000, 30, 15); err != nil {
			b.Fatal(err)
		}
	}
}
