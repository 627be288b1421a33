package assign

import (
	"math/rand"
	"reflect"
	"testing"

	"rotaryclk/internal/geom"
	"rotaryclk/internal/rotary"
)

func parProblem(t testing.TB, nFF int, seed int64) *Problem {
	t.Helper()
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(4000, 4000))
	arr, err := rotary.NewArray(die, 4, 4, 0.6, rotary.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ffs := make([]FF, nFF)
	for i := range ffs {
		ffs[i] = FF{
			Cell:   i,
			Pos:    geom.Pt(rng.Float64()*4000, rng.Float64()*4000),
			Target: rng.Float64() * 1000,
		}
	}
	return &Problem{Array: arr, FFs: ffs, K: 6}
}

// TestAssignDeterministicAcrossWorkerCounts: every assigner must return the
// same rings, taps, and totals whether the candidate matrix was built by 1
// worker or 8, and whether its rows were solved or reused from a previous
// assignment.
func TestAssignDeterministicAcrossWorkerCounts(t *testing.T) {
	solve := func(workers int) (*Assignment, *Assignment) {
		p := parProblem(t, 150, 42)
		p.Parallelism = workers
		mc, err := MinCost(p)
		if err != nil {
			t.Fatal(err)
		}
		p2 := parProblem(t, 150, 42)
		p2.Parallelism = workers
		mm, _, err := MinMaxCap(p2)
		if err != nil {
			t.Fatal(err)
		}
		return mc, mm
	}
	mcWant, mmWant := solve(1)
	mc, mm := solve(8)
	if !reflect.DeepEqual(mc, mcWant) {
		t.Error("workers=8: MinCost differs from serial run")
	}
	if !reflect.DeepEqual(mm, mmWant) {
		t.Error("workers=8: MinMaxCap differs from serial run")
	}

	// Row reuse: patch an edit of every seventh flip-flop onto a serial
	// MinCost answer; half the rows come from the previous assignment.
	base := parProblem(t, 150, 42)
	base.Parallelism = 1
	prev, err := MinCost(base)
	if err != nil {
		t.Fatal(err)
	}
	patch := func(workers int) *Assignment {
		p := parProblem(t, 150, 42)
		p.Array = base.Array
		p.Parallelism = workers
		for i := 0; i < len(p.FFs); i += 7 {
			p.FFs[i].Pos = geom.Pt(p.FFs[i].Pos.X+25, p.FFs[i].Pos.Y)
		}
		a, err := PatchMinCost(p, prev)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	want := patch(1)
	for _, workers := range []int{3, 8} {
		if got := patch(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d+reuse: PatchMinCost differs from serial run", workers)
		}
	}
}

// BenchmarkCandidates measures the FF×ring candidate-matrix construction —
// the O(|FF|×|rings|) SolveTap sweep — serial, parallel, and with every row
// reused from a previous solve.
func BenchmarkCandidates(b *testing.B) {
	run := func(workers int, reused bool) func(*testing.B) {
		return func(b *testing.B) {
			p := parProblem(b, 400, 3)
			if err := p.normalize(); err != nil {
				b.Fatal(err)
			}
			p.Parallelism = workers
			var reuse [][]candidate
			if reused {
				var err error
				if reuse, err = p.candidates(nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.candidates(reuse); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("serial", run(1, false))
	b.Run("parallel", run(0, false))
	b.Run("reused", run(0, true))
}
