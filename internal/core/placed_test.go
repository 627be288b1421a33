package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/stop"
)

// placedCase is one flow configuration of the Result.Placed contract test.
type placedCase struct {
	cells, ffs int
	seed       int64
	cfg        Config
}

func (pc placedCase) name() string {
	c := pc.cfg
	return fmt.Sprintf("c%d-f%d-s%d/%s-obj%d-td%v-par%d-strict%v",
		pc.cells, pc.ffs, pc.seed, c.Assigner, c.Objective, c.TimingDriven, c.Parallelism, c.Strict)
}

// TestPlacedRestartIsExact is the contract Result.Placed documents: a run
// that starts from another run's Placed with SkipInitialPlace, on a freshly
// generated copy of the same netlist, gives that run's answer bit for bit —
// every metric, the iteration log and events, the schedule, the assignment
// and the final positions. The cases cover generated circuits and the s9234
// and s5378 rows of Table II at paper scale, both assigners, both
// objectives, timing-driven mode, one and two workers, and strict mode.
func TestPlacedRestartIsExact(t *testing.T) {
	cases := []placedCase{
		{300, 40, 3, Config{NumRings: 9, MaxIters: 3, Parallelism: 1}},
		{300, 40, 3, Config{NumRings: 9, MaxIters: 3, Assigner: ILP, Objective: WeightedSum, Parallelism: 2}},
		{400, 60, 1, Config{NumRings: 9, MaxIters: 3, Objective: WeightedSum, TimingDriven: true, Parallelism: 1}},
		{400, 60, 1, Config{NumRings: 9, MaxIters: 2, Assigner: ILP, TimingDriven: true, Parallelism: 2, Strict: true}},
		{1510, 135, 9234, Config{NumRings: 16, MaxIters: 2, Parallelism: 2}},
		{1112, 164, 5378, Config{NumRings: 25, MaxIters: 2, Assigner: ILP, TimingDriven: true, Parallelism: 1, Strict: true}},
	}
	for _, pc := range cases {
		t.Run(pc.name(), func(t *testing.T) {
			c := genCircuit(t, pc.cells, pc.ffs, pc.seed)
			want, err := Run(c, pc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want.Placed == nil {
				t.Fatalf("clean run published no placement; events %v", want.Events)
			}
			wantPos := c.Positions()

			c2 := genCircuit(t, pc.cells, pc.ffs, pc.seed)
			if err := c2.SetPositions(want.Placed); err != nil {
				t.Fatal(err)
			}
			cfg := pc.cfg
			cfg.SkipInitialPlace = true
			got, err := Run(c2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Placed != nil {
				t.Error("a run that skipped stage 1 published a placement")
			}
			samePlacedResult(t, got, want)
			if !samePoints(c2.Positions(), wantPos) {
				t.Error("final positions differ")
			}
		})
	}
}

// samePlacedResult fails unless the two results are bit-identical in every
// field the contract names.
func samePlacedResult(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Base != want.Base || got.Final != want.Final {
		t.Errorf("metrics differ:\nbase  %+v\nwant  %+v\nfinal %+v\nwant  %+v", got.Base, want.Base, got.Final, want.Final)
	}
	if !slices.Equal(got.PerIter, want.PerIter) {
		t.Errorf("per-iteration metrics differ:\n%+v\nwant\n%+v", got.PerIter, want.PerIter)
	}
	if got.Iterations != want.Iterations || got.Degraded != want.Degraded {
		t.Errorf("iterations/degraded = %d/%v, want %d/%v", got.Iterations, got.Degraded, want.Iterations, want.Degraded)
	}
	if fmt.Sprint(got.Events) != fmt.Sprint(want.Events) {
		t.Errorf("events differ:\n%v\nwant\n%v", got.Events, want.Events)
	}
	if !sameBits(got.Schedule, want.Schedule) ||
		math.Float64bits(got.MaxSlack) != math.Float64bits(want.MaxSlack) ||
		math.Float64bits(got.WorkSlack) != math.Float64bits(want.WorkSlack) {
		t.Errorf("schedule or slacks differ: M* %v/%v, work %v/%v", got.MaxSlack, want.MaxSlack, got.WorkSlack, want.WorkSlack)
	}
	if !slices.Equal(got.Assign.Ring, want.Assign.Ring) || !slices.Equal(got.Assign.Taps, want.Assign.Taps) {
		t.Error("assignment rings or taps differ")
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func samePoints(a, b []geom.Point) bool {
	return slices.EqualFunc(a, b, func(p, q geom.Point) bool {
		return math.Float64bits(p.X) == math.Float64bits(q.X) && math.Float64bits(p.Y) == math.Float64bits(q.Y)
	})
}

// TestPlacedOnlyFromCleanStage1: Placed is withheld from every run whose
// stage 1 another run could not reproduce by skipping it — one that skipped
// stage 1, one whose stage 1 retried a stagnated solve (the retry's events
// would be missing from the restarted run), and one stopped inside stage 1
// — and kept by a run stopped only after stage 1, which carries the clean
// run's stage-1 placement bit for bit. These tests share the process-global
// injector and must not run in parallel.
func TestPlacedOnlyFromCleanStage1(t *testing.T) {
	cfg := Config{NumRings: 4, MaxIters: 2, Parallelism: 1}
	gen := func() *netlist.Circuit { return genCircuit(t, 200, 24, 11) }
	clean, err := Run(gen(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Placed == nil {
		t.Fatal("clean run published no placement")
	}

	t.Run("skipped", func(t *testing.T) {
		c := gen()
		if err := c.SetPositions(clean.Placed); err != nil {
			t.Fatal(err)
		}
		skip := cfg
		skip.SkipInitialPlace = true
		skip.Obs = obs.NewRegistry()
		res, err := Run(c, skip)
		if err != nil {
			t.Fatal(err)
		}
		if res.Placed != nil {
			t.Error("SkipInitialPlace run published a placement")
		}
		// The trace says why stage 1 took no time.
		var s1 *obs.SpanData
		for _, sp := range res.Metrics.Spans[0].Children {
			if sp.Name == "stage1.place" {
				s1 = sp
			}
		}
		if s1 == nil || !slices.Contains(s1.Attrs, obs.I("skipped", 1)) || len(s1.Children) != 0 {
			t.Errorf("stage1.place span = %+v, want skipped=1 and no children", s1)
		}
		if n := res.Metrics.Counter("placer.global.calls"); n != 0 {
			t.Errorf("placer.global.calls = %d on a skipped stage 1", n)
		}
	})

	t.Run("cg-retry", func(t *testing.T) {
		defer faultinject.Enable(faultinject.Rule{
			Site: faultinject.SitePlacerCG, Call: 0, Err: errors.New("injected stagnation"),
		})()
		res, err := Run(gen(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if eventMatching(res.Events, "retrying global placement") == nil {
			t.Fatalf("no stage-1 retry recorded; events %v", res.Events)
		}
		if res.Placed != nil {
			t.Error("a run whose stage 1 retried published a placement")
		}
	})

	for _, site := range []string{faultinject.SitePlacerCGCancel, faultinject.SitePlacerDetailedCancel} {
		t.Run("stopped-in-stage1/"+site, func(t *testing.T) {
			defer faultinject.Enable(faultinject.Rule{Site: site, Call: 1, Err: stop.ErrDeadlineExceeded})()
			res, err := Run(gen(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ev := stopKindEvent(res.Events); ev == nil || ev.Stage != 1 {
				t.Fatalf("want a stage-1 stop event; events %v", res.Events)
			}
			if res.Placed != nil {
				t.Error("a run stopped inside stage 1 published a placement")
			}
		})
	}

	t.Run("stopped-at-stage2", func(t *testing.T) {
		// The first stop check after stage 1 is stage 2's first
		// max-slack round.
		defer faultinject.Enable(faultinject.Rule{
			Site: faultinject.SiteSkewIterCancel, Call: 1, Err: stop.ErrDeadlineExceeded,
		})()
		res, err := Run(gen(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ev := stopKindEvent(res.Events)
		if !res.Degraded || ev == nil || ev.Stage != 2 || !strings.Contains(ev.Action, "before the base case") {
			t.Fatalf("want a run degraded at stage 2; events %v", res.Events)
		}
		if !samePoints(res.Placed, clean.Placed) {
			t.Error("a run stopped after stage 1 did not publish the clean stage-1 placement")
		}
	})
}
