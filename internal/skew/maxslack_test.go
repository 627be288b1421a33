package skew

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/stop"
)

// refLoopMaxSlack is a verbatim copy of MaxSlack's own cycle iteration from
// before it was factored into parametric, the reference that keeps MaxSlack
// bit-identical.
func refLoopMaxSlack(tok *stop.Token, reg *obs.Registry, n int, pairs []SeqPair, T, setup, hold float64) (float64, []float64, error) {
	if err := faultinject.Hook(faultinject.SiteSkewMaxSlack); err != nil {
		return 0, nil, err
	}
	base := Constraints(nil, pairs, T, 0, setup, hold)
	cons := make([]DiffConstraint, len(base))
	dist := make([]float64, n)
	for m := T; ; {
		// Bound_0 - m is bit-identical to Constraints(nil, pairs, T, m, ...).
		for i, c := range base {
			cons[i] = DiffConstraint{U: c.U, V: c.V, Bound: c.Bound - m}
		}
		clear(dist)
		_, ok, cycle, err := relax(tok, reg, n, cons, dist)
		if err != nil {
			return 0, nil, fmt.Errorf("skew: max-slack probe: %w", err)
		}
		if ok {
			normalize(dist)
			return m, dist, nil
		}
		if cycle == nil {
			return 0, nil, fmt.Errorf("skew: max-slack probe at slack %v hit the round cap without a witness cycle: %w", m, ErrInfeasible)
		}
		reg.Add("skew.maxslack.cycles", 1)
		w := 0.0
		for _, i := range cycle {
			w += base[i].Bound
		}
		m = w / float64(len(cycle))
	}
}

// TestMaxSlackMatchesReferenceLoop: on random sparse and dense instances
// MaxSlack returns the reference's M and schedule bit for bit, after the
// same number of witness cycles, and fails where it fails.
func TestMaxSlackMatchesReferenceLoop(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(47))
	cycles := int64(0)
	for trial := 0; trial < 300; trial++ {
		var n int
		var pairs []SeqPair
		if trial%2 == 0 {
			n = 2 + rng.Intn(60)
			pairs = sparsePairs(rng, n, 1+rng.Intn(4))
		} else {
			n = 2 + rng.Intn(14)
			pairs = buildRandomPairs(rng, n)
		}
		T := 500 + rng.Float64()*1000
		regGot, regWant := obs.NewRegistry(), obs.NewRegistry()
		gotM, got, gotErr := MaxSlack(nil, regGot, n, pairs, T, propSetup, propHold)
		wantM, want, wantErr := refLoopMaxSlack(nil, regWant, n, pairs, T, propSetup, propHold)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: err %v, reference err %v", trial, gotErr, wantErr)
		}
		if math.Float64bits(gotM) != math.Float64bits(wantM) || !sameBits(got, want) {
			t.Fatalf("trial %d: M %v vs reference %v, schedules equal=%v", trial, gotM, wantM, sameBits(got, want))
		}
		g, w := regGot.Snapshot().Counter("skew.maxslack.cycles"), regWant.Snapshot().Counter("skew.maxslack.cycles")
		if g != w {
			t.Fatalf("trial %d: %d witness cycles, reference %d", trial, g, w)
		}
		cycles += g
	}
	if cycles < 300 {
		t.Fatalf("only %d witness cycles over all trials", cycles)
	}
}

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
		if got := reg.Snapshot().Counter("skew.maxslack.cycles"); got != tc.cycles {
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
