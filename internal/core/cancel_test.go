package core

import (
	"errors"
	"testing"
	"time"

	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/placer"
	"rotaryclk/internal/stop"
)

// The cancellation matrix: a deadline (or cancel) is injected inside every
// long solver loop reachable from the flow, at its first iteration, and the
// test asserts the documented contract — non-strict runs return a Degraded
// result carrying a Canceled/DeadlineExceeded event and a nil error (never a
// hang, never a partial write: the result still audits), strict runs return
// the typed StageError unwrapping to the stop sentinel. These tests share
// the process-global injector and must not run in parallel.
//
// The branch-and-bound node loop (SiteLPNodeCancel) is not reachable from
// Run — the flow's ILP assigner uses the LP relaxation plus rounding — so
// its contract is proven by the unit test in internal/lp.

// cancelSites are the flow-reachable cancellation injection points, each
// with a config that routes the flow through the loop hosting the site.
var cancelSites = []struct {
	name string
	site string
	cfg  func() Config
}{
	{"placer-cg", faultinject.SitePlacerCGCancel, cancelConfig},
	{"lp-pivot", faultinject.SiteLPPivotCancel, func() Config {
		c := cancelConfig()
		c.Assigner = ILP // the simplex runs only under the min-max-cap assigner
		return c
	}},
	{"mcmf-path", faultinject.SiteMcmfPathCancel, cancelConfig},
	{"assign-candidates", faultinject.SiteAssignCandCancel, cancelConfig},
	{"skew-iter", faultinject.SiteSkewIterCancel, cancelConfig},
	{"placer-detailed", faultinject.SitePlacerDetailedCancel, cancelConfig},
}

// cancelConfig pins Parallelism to 1 so injection call counts are
// deterministic (the parallel CG solves both axes concurrently otherwise).
func cancelConfig() Config {
	return Config{NumRings: 4, MaxIters: 2, Parallelism: 1}
}

func stopKindEvent(events []StageEvent) *StageEvent {
	for i := range events {
		if events[i].Kind == Canceled || events[i].Kind == DeadlineExceeded {
			return &events[i]
		}
	}
	return nil
}

// TestCancelMatrixDegrades proves the non-strict contract at every site: the
// run returns a valid, auditable result — degraded, with the stop recorded
// as an ordered event — and no error.
func TestCancelMatrixDegrades(t *testing.T) {
	for _, tc := range cancelSites {
		t.Run(tc.name, func(t *testing.T) {
			defer faultinject.Enable(faultinject.Rule{
				Site: tc.site, Call: 1, Err: stop.ErrDeadlineExceeded,
			})()
			c := genCircuit(t, 200, 24, 11)
			cfg := tc.cfg()
			res, err := Run(c, cfg)
			if err != nil {
				t.Fatalf("non-strict cancellation must degrade, not error: %v", err)
			}
			if !res.Degraded {
				t.Fatal("result not marked Degraded")
			}
			ev := stopKindEvent(res.Events)
			if ev == nil {
				t.Fatalf("no Canceled/DeadlineExceeded event; events: %v", res.Events)
			}
			if ev.Kind != DeadlineExceeded {
				t.Errorf("event kind = %v, want deadline-exceeded", ev.Kind)
			}
			if err := Audit(c, cfg, res); err != nil {
				t.Errorf("degraded result failed audit: %v", err)
			}
		})
	}
}

// TestCancelMatrixStrict proves the strict contract at every site: the typed
// StageError carries the DeadlineExceeded kind and unwraps to the sentinel.
func TestCancelMatrixStrict(t *testing.T) {
	for _, tc := range cancelSites {
		t.Run(tc.name, func(t *testing.T) {
			defer faultinject.Enable(faultinject.Rule{
				Site: tc.site, Call: 1, Err: stop.ErrDeadlineExceeded,
			})()
			cfg := tc.cfg()
			cfg.Strict = true
			_, err := Run(genCircuit(t, 200, 24, 11), cfg)
			var se *StageError
			if !errors.As(err, &se) {
				t.Fatalf("err = %v, want *StageError", err)
			}
			if se.Kind != DeadlineExceeded {
				t.Errorf("kind = %v, want deadline-exceeded", se.Kind)
			}
			if !errors.Is(err, stop.ErrDeadlineExceeded) {
				t.Error("stage error must unwrap to stop.ErrDeadlineExceeded")
			}
		})
	}
}

// TestCancelKindDistinction: an explicit cancel is classified Canceled, not
// DeadlineExceeded, so serving layers can tell user aborts from deadline
// pressure.
func TestCancelKindDistinction(t *testing.T) {
	defer faultinject.Enable(faultinject.Rule{
		Site: faultinject.SitePlacerCGCancel, Call: 1, Err: stop.ErrCanceled,
	})()
	c := genCircuit(t, 200, 24, 11)
	res, err := Run(c, cancelConfig())
	if err != nil {
		t.Fatal(err)
	}
	ev := stopKindEvent(res.Events)
	if ev == nil || ev.Kind != Canceled {
		t.Fatalf("want a Canceled event, got events %v", res.Events)
	}
}

// TestCancelPreFiredToken: a token fired before Run starts still produces a
// degraded result (stage-boundary check), not a hang or an error.
func TestCancelPreFiredToken(t *testing.T) {
	tok := stop.New()
	tok.Cancel()
	cfg := cancelConfig()
	cfg.Stop = tok
	c := genCircuit(t, 200, 24, 11)
	res, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("result not marked Degraded")
	}
	if ev := stopKindEvent(res.Events); ev == nil || ev.Kind != Canceled {
		t.Fatalf("want a Canceled event, got %v", res.Events)
	}
	if err := Audit(c, cfg, res); err != nil {
		t.Errorf("degraded result failed audit: %v", err)
	}
}

// TestCancelRealDeadline drives a real timer through the whole stack on a
// circuit big enough that the deadline fires mid-placement: the run must
// come back degraded well before the undisturbed runtime.
func TestCancelRealDeadline(t *testing.T) {
	c := genCircuit(t, 4000, 400, 7)
	tok, release := stop.WithTimeout(30 * time.Millisecond)
	defer release()
	cfg := Config{NumRings: 4, MaxIters: 5, Stop: tok}
	start := time.Now()
	res, err := Run(c, cfg)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Skip("circuit finished inside the deadline on this machine")
	}
	if ev := stopKindEvent(res.Events); ev == nil || ev.Kind != DeadlineExceeded {
		t.Fatalf("want a DeadlineExceeded event, got %v", res.Events)
	}
	if elapsed > 5*time.Second {
		t.Errorf("deadline at 30ms but Run took %v", elapsed)
	}
	if err := Audit(c, cfg, res); err != nil {
		t.Errorf("degraded result failed audit: %v", err)
	}
}

// TestCancelMidLoopKeepsBestSnapshot: a deadline that fires after the base
// case exists must keep the best consistent snapshot (placement, schedule,
// assignment all full-length), not the partial early-degrade shape.
func TestCancelMidLoopKeepsBestSnapshot(t *testing.T) {
	// A dry run counts the skew-iteration checks of the undisturbed flow;
	// arming the LAST one is guaranteed to land inside the re-optimization
	// loop (every iteration runs skew rounds after stage 2), i.e. after the
	// base case exists. The run up to that call is identical to the dry run,
	// so the targeting is deterministic.
	c := genCircuit(t, 200, 24, 11)
	cfg := cancelConfig()
	restore := faultinject.Enable() // count-only: no rules
	if _, err := Run(c, cfg); err != nil {
		restore()
		t.Fatal(err)
	}
	total := faultinject.Calls(faultinject.SiteSkewIterCancel)
	restore()
	if total < 2 {
		t.Fatalf("only %d skew rounds observed; cannot target an in-loop one", total)
	}

	defer faultinject.Enable(faultinject.Rule{
		Site: faultinject.SiteSkewIterCancel, Call: total, Err: stop.ErrDeadlineExceeded,
	})()
	c2 := genCircuit(t, 200, 24, 11)
	res, err := Run(c2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("result not marked Degraded")
	}
	n := len(res.FFCells)
	if len(res.Schedule) != n || len(res.Assign.Taps) != n {
		t.Fatalf("mid-loop cancel must keep the full base snapshot: %d schedule, %d taps, want %d",
			len(res.Schedule), len(res.Assign.Taps), n)
	}
	if err := Audit(c2, cfg, res); err != nil {
		t.Errorf("snapshot failed audit: %v", err)
	}
}

// TestCancelDetailedMidPass fires the deadline inside the detailed swap
// loop, mid-sweep, on a 5k-cell run: once in stage 1 (the fifth check of
// the first sweep) and once in the last stage-6 call (three checks before
// its end, located by a count-only dry run). Non-strict runs degrade at the
// stage boundary with the stop recorded and a legal placement; strict runs
// return the typed StageError of that stage.
func TestCancelDetailedMidPass(t *testing.T) {
	const site = faultinject.SitePlacerDetailedCancel
	cfg := Config{NumRings: 16, MaxIters: 2, Parallelism: 1}
	restore := faultinject.Enable() // count-only: no rules
	if _, err := Run(genCircuit(t, 5000, 50, 3), cfg); err != nil {
		restore()
		t.Fatal(err)
	}
	total := faultinject.Calls(site)
	restore()
	if total < 60 {
		t.Fatalf("only %d detailed stop checks; cannot target both stages mid-sweep", total)
	}
	for _, tc := range []struct {
		stage, call int
	}{{1, 5}, {6, total - 3}} {
		for _, strict := range []bool{false, true} {
			restore := faultinject.Enable(faultinject.Rule{Site: site, Call: tc.call, Err: stop.ErrDeadlineExceeded})
			c := genCircuit(t, 5000, 50, 3)
			cfg := cfg
			cfg.Strict = strict
			res, err := Run(c, cfg)
			fired := len(faultinject.Firings())
			restore()
			if fired != 1 {
				t.Fatalf("stage %d: the fault fired %d times", tc.stage, fired)
			}
			if strict {
				var se *StageError
				if !errors.As(err, &se) || se.Stage != tc.stage || se.Kind != DeadlineExceeded {
					t.Errorf("stage %d strict: err = %v, want a deadline StageError of that stage", tc.stage, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("stage %d: non-strict cancellation must degrade, not error: %v", tc.stage, err)
			}
			ev := stopKindEvent(res.Events)
			if !res.Degraded || ev == nil || ev.Stage != tc.stage || ev.Kind != DeadlineExceeded {
				t.Fatalf("stage %d: degraded %v, events %v", tc.stage, res.Degraded, res.Events)
			}
			if ov := placer.MaxOverlap(c); ov != 0 {
				t.Errorf("stage %d: stopped placement overlaps by %v", tc.stage, ov)
			}
			if err := Audit(c, cfg, res); err != nil {
				t.Errorf("stage %d: degraded result failed audit: %v", tc.stage, err)
			}
		}
	}
}
