package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/placer"
	"rotaryclk/internal/skew"
)

// Span-closure contract: Result.Metrics is populated (with every span ended)
// on every result-returning path — clean, recovered, and degraded — and on
// hard-error paths the caller's registry still holds a fully-closed span tree
// via the deferred root End. These tests share the process-global injector
// with the recovery matrix and must not run in parallel.

// requireClosedSpans asserts the snapshot exists and its span tree is fully
// ended, with the root core.Run span present.
func requireClosedSpans(t *testing.T, snap *obs.Snapshot) {
	t.Helper()
	if snap == nil {
		t.Fatal("nil snapshot: metrics were not flushed")
	}
	if open := snap.OpenSpans(); len(open) != 0 {
		t.Fatalf("open spans after Run: %v", open)
	}
	if snap.SpanSeconds("core.Run") <= 0 {
		t.Error("root core.Run span missing or zero-duration")
	}
}

func TestMetricsCleanRun(t *testing.T) {
	cfg := recoveryConfig()
	cfg.Obs = obs.NewRegistry()
	res, err := Run(genCircuit(t, 200, 24, 17), cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireClosedSpans(t, res.Metrics)
	for _, name := range []string{
		"core.runs", "core.iterations",
		"placer.cg.solves", "placer.cg.iters",
		"assign.mincost.calls", "assign.tap.queries",
		"mcmf.solves", "mcmf.paths",
		"placer.detailed.tried", "placer.detailed.accepted",
	} {
		if res.Metrics.Counter(name) == 0 {
			t.Errorf("counter %s = 0 on a clean run", name)
		}
	}
	for _, name := range []string{"core.recover.assign", "core.recover.skew", "core.degraded"} {
		if n := res.Metrics.Counter(name); n != 0 {
			t.Errorf("counter %s = %d on a clean run, want 0", name, n)
		}
	}
	// Every per-stage span of the base flow must appear in the tree.
	for _, name := range []string{
		"stage1.place", "stage2.maxslack", "stage3.assign",
		"flow.iter", "stage5.evaluate", "stage6.place",
		"stage1.global", "stage1.legalize", "stage1.detailed",
		"stage6.incremental", "stage6.legalize", "stage6.detailed",
	} {
		if res.Metrics.SpanSeconds(name) <= 0 {
			t.Errorf("span %s missing from clean-run trace", name)
		}
	}
}

// TestMetricsTracedRunMatchesUntraced: recording counters and spans,
// the placer's included, changes no answer: every position and the final
// metrics are bit-identical with and without a registry.
func TestMetricsTracedRunMatchesUntraced(t *testing.T) {
	plain := genCircuit(t, 600, 30, 18)
	traced := plain.Clone()
	want, err := Run(plain, recoveryConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := recoveryConfig()
	cfg.Obs = obs.NewRegistry()
	got, err := Run(traced, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id, cell := range plain.Cells {
		p, q := cell.Pos, traced.Cells[id].Pos
		if math.Float64bits(p.X) != math.Float64bits(q.X) || math.Float64bits(p.Y) != math.Float64bits(q.Y) {
			t.Fatalf("cell %d at %v traced, %v untraced", id, q, p)
		}
	}
	if got.Final != want.Final || got.Base != want.Base {
		t.Errorf("traced metrics %+v / %+v, untraced %+v / %+v", got.Base, got.Final, want.Base, want.Final)
	}
}

func TestMetricsDisarmedRunHasNone(t *testing.T) {
	res, err := Run(genCircuit(t, 200, 24, 17), recoveryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != nil {
		t.Errorf("disarmed run produced metrics: %+v", res.Metrics)
	}
}

// Recovery-ladder paths: each forced ladder must still yield a fully-closed
// span tree and record its recovery counter.
func TestMetricsSurviveRecoveryLadders(t *testing.T) {
	cases := []struct {
		name    string
		rule    faultinject.Rule
		counter string
		want    int64
	}{
		{
			name: "assign ladder",
			rule: faultinject.Rule{
				Site: faultinject.SiteAssignMinCost, Count: 2,
				Err: fmt.Errorf("injected: %w", assign.ErrInfeasible),
			},
			counter: "core.recover.assign",
			want:    2,
		},
		{
			name: "assign fallback rung",
			rule: faultinject.Rule{
				Site: faultinject.SiteAssignMinCost, Count: 3,
				Err: fmt.Errorf("injected: %w", assign.ErrInfeasible),
			},
			counter: "core.recover.assign",
			want:    3,
		},
		{
			name: "slack ladder",
			rule: faultinject.Rule{
				Site: faultinject.SiteSkewMinDelta, Count: 2,
				Err: fmt.Errorf("injected: %w", skew.ErrInfeasible),
			},
			counter: "core.recover.skew",
			want:    2,
		},
		{
			name: "max-slack schedule fallback",
			rule: faultinject.Rule{
				Site: faultinject.SiteSkewMinDelta, Count: 3,
				Err: fmt.Errorf("injected: %w", skew.ErrInfeasible),
			},
			counter: "core.recover.skew",
			want:    3,
		},
		{
			name: "placer retry",
			rule: faultinject.Rule{
				Site: faultinject.SitePlacerGlobal, Call: 1,
				Err: fmt.Errorf("injected: %w", placer.ErrNonConverged),
			},
			counter: "core.runs",
			want:    1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer faultinject.Enable(tc.rule)()
			cfg := recoveryConfig()
			cfg.Obs = obs.NewRegistry()
			res, err := Run(genCircuit(t, 200, 24, 12), cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireClosedSpans(t, res.Metrics)
			if got := res.Metrics.Counter(tc.counter); got < tc.want {
				t.Errorf("counter %s = %d, want >= %d", tc.counter, got, tc.want)
			}
			if len(res.Events) == 0 {
				t.Error("forced ladder recorded no events")
			}
			if res.Metrics.Counter("core.events") != int64(len(res.Events)) {
				t.Errorf("core.events = %d, want %d",
					res.Metrics.Counter("core.events"), len(res.Events))
			}
		})
	}
}

// Degraded exit: a mid-loop internal failure degrades to the best snapshot,
// and the metrics flush still happens — with every span closed, including the
// interrupted iteration's.
func TestMetricsFlushedOnDegradedExit(t *testing.T) {
	defer faultinject.Enable(faultinject.Rule{
		Site: faultinject.SitePlacerIncremental, Call: 1,
		Err: errors.New("injected internal failure"),
	})()
	cfg := recoveryConfig()
	cfg.Obs = obs.NewRegistry()
	res, err := Run(genCircuit(t, 200, 24, 15), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("expected a degraded result")
	}
	requireClosedSpans(t, res.Metrics)
	if res.Metrics.Counter("core.degraded") != 1 {
		t.Errorf("core.degraded = %d, want 1", res.Metrics.Counter("core.degraded"))
	}
}

// Hard-error exits: Run returns no Result, but the deferred root End must
// still close the span tree held by the caller's registry on every typed
// error path.
func TestSpansClosedOnErrorExits(t *testing.T) {
	cases := []struct {
		name   string
		rule   faultinject.Rule
		strict bool
	}{
		{
			name: "stage 2 typed error",
			rule: faultinject.Rule{
				Site: faultinject.SiteSkewMaxSlack, Call: 1,
				Err: fmt.Errorf("injected: %w", skew.ErrInfeasible),
			},
		},
		{
			name: "assign ladder exhausted",
			rule: faultinject.Rule{
				Site: faultinject.SiteAssignMinCost, Call: 0,
				Err: fmt.Errorf("injected: %w", assign.ErrInfeasible),
			},
		},
		{
			name: "strict mid-loop failure",
			rule: faultinject.Rule{
				Site: faultinject.SitePlacerIncremental, Call: 1,
				Err: errors.New("injected internal failure"),
			},
			strict: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer faultinject.Enable(tc.rule)()
			cfg := recoveryConfig()
			cfg.Strict = tc.strict
			cfg.Obs = obs.NewRegistry()
			_, err := Run(genCircuit(t, 200, 24, 14), cfg)
			var se *StageError
			if !errors.As(err, &se) {
				t.Fatalf("err = %v, want *StageError", err)
			}
			snap := cfg.Obs.Snapshot()
			if open := snap.OpenSpans(); len(open) != 0 {
				t.Errorf("open spans after error exit: %v", open)
			}
			if snap.Counter("core.runs") != 1 {
				t.Errorf("core.runs = %d, want 1", snap.Counter("core.runs"))
			}
		})
	}
}

// CPUSeconds reads the Table III/IV split from the span tree: both halves
// are positive on a traced run and together fit inside the core.Run span
// (the stage spans never overlap); a degraded run still gives a finite
// split over a closed tree; an untraced run gives zeros.
func TestCPUSecondsFromSpans(t *testing.T) {
	cfg := recoveryConfig()
	cfg.Obs = obs.NewRegistry()
	res, err := Run(genCircuit(t, 200, 24, 17), cfg)
	if err != nil {
		t.Fatal(err)
	}
	place, opt := res.CPUSeconds()
	run := res.Metrics.SpanSeconds("core.Run")
	if place <= 0 || opt <= 0 {
		t.Errorf("CPUSeconds = %g, %g; want both > 0", place, opt)
	}
	// The tolerance only absorbs float rounding of the millisecond sums.
	if place+opt > run*(1+1e-12) {
		t.Errorf("place %g + opt %g exceeds the core.Run span %g", place, opt, run)
	}

	t.Run("degraded", func(t *testing.T) {
		defer faultinject.Enable(faultinject.Rule{
			Site: faultinject.SitePlacerIncremental, Call: 1,
			Err: errors.New("injected internal failure"),
		})()
		cfg := recoveryConfig()
		cfg.Obs = obs.NewRegistry()
		res, err := Run(genCircuit(t, 200, 24, 15), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Degraded {
			t.Fatal("expected a degraded result")
		}
		requireClosedSpans(t, res.Metrics)
		place, opt := res.CPUSeconds()
		for _, v := range []float64{place, opt} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("degraded CPUSeconds = %g, %g; want finite and >= 0", place, opt)
			}
		}
	})

	t.Run("untraced", func(t *testing.T) {
		if place, opt := (&Result{}).CPUSeconds(); place != 0 || opt != 0 {
			t.Errorf("nil Metrics CPUSeconds = %g, %g; want 0, 0", place, opt)
		}
	})
}
