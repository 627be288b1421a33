package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/lp"
	"rotaryclk/internal/obs"
	"rotaryclk/internal/placer"
	"rotaryclk/internal/rotary"
	"rotaryclk/internal/skew"
	"rotaryclk/internal/stop"
)

// The recovery matrix: every failure kind of the taxonomy is forced through
// the deterministic injector in at least one stage, and the test asserts the
// exact documented recovery (or typed failure) the flow takes. These tests
// share the process-global injector and must not run in parallel.

// recoveryConfig keeps the matrix fast: small circuit, few iterations.
func recoveryConfig() Config {
	return Config{NumRings: 4, MaxIters: 2}
}

func eventMatching(events []StageEvent, substr string) *StageEvent {
	for i := range events {
		if strings.Contains(events[i].Action, substr) {
			return &events[i]
		}
	}
	return nil
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Kind
	}{
		{fmt.Errorf("x: %w", assign.ErrInfeasible), Infeasible},
		{fmt.Errorf("x: %w", skew.ErrInfeasible), Infeasible},
		{fmt.Errorf("x: %w", rotary.ErrNoTap), Infeasible},
		{fmt.Errorf("x: %w", placer.ErrNonConverged), NonConverged},
		{fmt.Errorf("x: %w", lp.ErrBudget), BudgetExceeded},
		{fmt.Errorf("x: %w", lp.ErrBadProblem), InvalidInput},
		{fmt.Errorf("x: %w", stop.ErrCanceled), Canceled},
		{fmt.Errorf("x: %w", stop.ErrDeadlineExceeded), DeadlineExceeded},
		{errors.New("anything else"), Internal},
	}
	for _, c := range cases {
		if got := classify(c.err); got != c.want {
			t.Errorf("classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestStageErrorFormat(t *testing.T) {
	inner := errors.New("boom")
	se := &StageError{Stage: 4, Iter: 2, Kind: Infeasible, Err: inner}
	if !errors.Is(se, inner) {
		t.Error("StageError must unwrap to its cause")
	}
	for _, want := range []string{"stage 4", "iter 2", "infeasible", "boom"} {
		if !strings.Contains(se.Error(), want) {
			t.Errorf("error %q missing %q", se.Error(), want)
		}
	}
}

// Kind: NonConverged, stage 1. A stagnated global placement is retried once
// at a looser tolerance; when the retry succeeds the flow proceeds cleanly.
func TestRecoveryPlacerNonConverged(t *testing.T) {
	defer faultinject.Enable(faultinject.Rule{
		Site: faultinject.SitePlacerGlobal, Call: 1,
		Err: fmt.Errorf("injected: %w", placer.ErrNonConverged),
	})()
	res, err := Run(genCircuit(t, 200, 24, 11), recoveryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Error("a recovered stage-1 retry must not degrade the result")
	}
	ev := eventMatching(res.Events, "retrying global placement")
	if ev == nil {
		t.Fatalf("no retry event recorded; events: %v", res.Events)
	}
	if ev.Stage != 1 || ev.Kind != NonConverged {
		t.Errorf("retry event = %+v, want stage 1 non-converged", ev)
	}
}

// Kind: NonConverged, organic path: injected CG stagnation makes the placer
// itself return ErrNonConverged (not an injected sentinel at the entry hook),
// and strict mode surfaces it as a typed stage-1 error.
func TestStrictPlacerCGStagnation(t *testing.T) {
	defer faultinject.Enable(faultinject.Rule{
		Site: faultinject.SitePlacerCG, Call: 0,
		Err: errors.New("injected stagnation"),
	})()
	cfg := recoveryConfig()
	cfg.Strict = true
	_, err := Run(genCircuit(t, 200, 24, 11), cfg)
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StageError", err)
	}
	if se.Stage != 1 || se.Kind != NonConverged {
		t.Errorf("StageError = %+v, want stage 1 non-converged", se)
	}
	if !errors.Is(err, placer.ErrNonConverged) {
		t.Error("stage error must unwrap to placer.ErrNonConverged")
	}
}

// Kind: Infeasible, stage 3. The first two assignment attempts fail as
// infeasible; the ladder widens K and relaxes ring capacity, and the third
// attempt succeeds with no degradation.
func TestRecoveryAssignLadder(t *testing.T) {
	defer faultinject.Enable(faultinject.Rule{
		Site: faultinject.SiteAssignMinCost, Count: 2,
		Err: fmt.Errorf("injected: %w", assign.ErrInfeasible),
	})()
	res, err := Run(genCircuit(t, 200, 24, 12), recoveryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Error("a recovered assignment must not degrade the result")
	}
	if ev := eventMatching(res.Events, "K widened"); ev == nil {
		t.Fatalf("no K-widening event; events: %v", res.Events)
	} else if ev.Stage != 3 || ev.Kind != Infeasible {
		t.Errorf("ladder event = %+v, want stage 3 infeasible", ev)
	}
	if eventMatching(res.Events, "rings candidate") == nil {
		t.Fatalf("no capacity-relaxation event; events: %v", res.Events)
	}
	if eventMatching(res.Events, "fallback") != nil {
		t.Error("two failures must not reach the tapping fallback step")
	}
}

// Kind: Infeasible, stage 3, last rung: three failures in a row push the
// ladder all the way to the nearest-point tapping fallback.
func TestRecoveryAssignFallbackRung(t *testing.T) {
	defer faultinject.Enable(faultinject.Rule{
		Site: faultinject.SiteAssignMinCost, Count: 3,
		Err: fmt.Errorf("injected: %w", assign.ErrInfeasible),
	})()
	res, err := Run(genCircuit(t, 200, 24, 12), recoveryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if eventMatching(res.Events, "nearest-point tapping fallback") == nil {
		t.Fatalf("no fallback-rung event; events: %v", res.Events)
	}
}

// Kind: Infeasible, stage 3, ladder exhausted before the base case exists:
// with nothing to degrade to, the flow fails hard with the typed error.
func TestAssignExhaustedIsTypedError(t *testing.T) {
	defer faultinject.Enable(faultinject.Rule{
		Site: faultinject.SiteAssignMinCost, Call: 0,
		Err: fmt.Errorf("injected: %w", assign.ErrInfeasible),
	})()
	_, err := Run(genCircuit(t, 200, 24, 12), recoveryConfig())
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StageError", err)
	}
	if se.Stage != 3 || se.Iter != 0 || se.Kind != Infeasible {
		t.Errorf("StageError = %+v, want stage 3 iter 0 infeasible", se)
	}
	if !errors.Is(err, assign.ErrInfeasible) {
		t.Error("stage error must unwrap to assign.ErrInfeasible")
	}
}

// Strict mode skips the assignment ladder: the first infeasible attempt is
// final, even though the non-strict flow would have recovered.
func TestStrictSkipsAssignLadder(t *testing.T) {
	defer faultinject.Enable(faultinject.Rule{
		Site: faultinject.SiteAssignMinCost, Count: 1,
		Err: fmt.Errorf("injected: %w", assign.ErrInfeasible),
	})()
	cfg := recoveryConfig()
	cfg.Strict = true
	_, err := Run(genCircuit(t, 200, 24, 12), cfg)
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StageError", err)
	}
	if se.Stage != 3 || se.Kind != Infeasible {
		t.Errorf("StageError = %+v, want stage 3 infeasible", se)
	}
	if faultinject.Calls(faultinject.SiteAssignMinCost) != 1 {
		t.Errorf("strict mode ran %d assignment attempts, want 1",
			faultinject.Calls(faultinject.SiteAssignMinCost))
	}
}

// Kind: Infeasible, stage 4. Two infeasible cost-driven solves walk the
// slack ladder (half margin, then none) under either objective; the third
// attempt succeeds.
func TestRecoverySlackLadder(t *testing.T) {
	for _, tc := range []struct {
		name      string
		objective SkewObjective
		site      string
	}{
		{"min-delta", MinDelta, faultinject.SiteSkewMinDelta},
		{"weighted-sum", WeightedSum, faultinject.SiteSkewWeightedSum},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer faultinject.Enable(faultinject.Rule{
				Site: tc.site, Count: 2,
				Err: fmt.Errorf("injected: %w", skew.ErrInfeasible),
			})()
			cfg := recoveryConfig()
			cfg.Objective = tc.objective
			res, err := Run(genCircuit(t, 200, 24, 13), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Degraded {
				t.Error("a recovered slack ladder must not degrade the result")
			}
			relaxed := 0
			for _, ev := range res.Events {
				if strings.Contains(ev.Action, "relaxing working slack") {
					relaxed++
					if ev.Stage != 4 || ev.Kind != Infeasible {
						t.Errorf("slack event = %+v, want stage 4 infeasible", ev)
					}
				}
			}
			if relaxed != 2 {
				t.Errorf("%d slack-relaxation events, want 2; events: %v", relaxed, res.Events)
			}
		})
	}
}

// Kind: Infeasible, stage 4, last rung: when even the zero-margin system is
// infeasible the flow falls back to the fresh max-slack schedule.
func TestRecoveryMaxSlackScheduleFallback(t *testing.T) {
	defer faultinject.Enable(faultinject.Rule{
		Site: faultinject.SiteSkewMinDelta, Count: 3,
		Err: fmt.Errorf("injected: %w", skew.ErrInfeasible),
	})()
	res, err := Run(genCircuit(t, 200, 24, 13), recoveryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if eventMatching(res.Events, "max-slack schedule") == nil {
		t.Fatalf("no max-slack fallback event; events: %v", res.Events)
	}
}

// Satellite (a): an in-loop slack refresh failure is no longer silently
// swallowed — it produces a warning event and the flow keeps the previous
// working slack.
func TestInLoopSlackRefreshWarns(t *testing.T) {
	defer faultinject.Enable(faultinject.Rule{
		Site: faultinject.SiteSkewMaxSlack, Call: 2, // call 1 is stage 2 proper
		Err: fmt.Errorf("injected: %w", skew.ErrInfeasible),
	})()
	res, err := Run(genCircuit(t, 200, 24, 14), recoveryConfig())
	if err != nil {
		t.Fatal(err)
	}
	ev := eventMatching(res.Events, "slack refresh failed")
	if ev == nil {
		t.Fatalf("no refresh-warning event; events: %v", res.Events)
	}
	if ev.Stage != 2 || ev.Iter != 1 {
		t.Errorf("refresh event = %+v, want stage 2 iter 1", ev)
	}
}

// ... and in strict mode the same refresh failure is a hard typed error.
func TestStrictInLoopSlackRefresh(t *testing.T) {
	defer faultinject.Enable(faultinject.Rule{
		Site: faultinject.SiteSkewMaxSlack, Call: 2,
		Err: fmt.Errorf("injected: %w", skew.ErrInfeasible),
	})()
	cfg := recoveryConfig()
	cfg.Strict = true
	_, err := Run(genCircuit(t, 200, 24, 14), cfg)
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StageError", err)
	}
	if se.Stage != 2 || se.Iter != 1 || se.Kind != Infeasible {
		t.Errorf("StageError = %+v, want stage 2 iter 1 infeasible", se)
	}
}

// Stage 2 before the base case has no fallback: a typed hard error.
func TestStage2InitialIsTypedError(t *testing.T) {
	defer faultinject.Enable(faultinject.Rule{
		Site: faultinject.SiteSkewMaxSlack, Call: 1,
		Err: fmt.Errorf("injected: %w", skew.ErrInfeasible),
	})()
	_, err := Run(genCircuit(t, 200, 24, 14), recoveryConfig())
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StageError", err)
	}
	if se.Stage != 2 || se.Iter != 0 || se.Kind != Infeasible {
		t.Errorf("StageError = %+v, want stage 2 iter 0 infeasible", se)
	}
}

// Kind: Internal, stage 6, graceful degradation: an unclassified mid-loop
// failure after the base case ends the loop with the best snapshot instead
// of an error.
func TestDegradedOnMidLoopFailure(t *testing.T) {
	defer faultinject.Enable(faultinject.Rule{
		Site: faultinject.SitePlacerIncremental, Call: 1,
		Err: errors.New("injected internal failure"),
	})()
	c := genCircuit(t, 200, 24, 15)
	res, err := Run(c, recoveryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("mid-loop failure after base case must degrade, not error")
	}
	last := res.Events[len(res.Events)-1]
	if last.Stage != 6 || last.Iter != 1 || last.Kind != Internal {
		t.Errorf("degradation event = %+v, want stage 6 iter 1 internal", last)
	}
	// The loop never completed an iteration, so the result is the base case.
	if res.Iterations != 0 || res.Final != res.Base {
		t.Errorf("degraded result must be the base snapshot (iters %d)", res.Iterations)
	}
	if res.Assign == nil || len(res.Schedule) == 0 {
		t.Error("degraded result must still carry a consistent snapshot")
	}
	// The snapshot must audit: the degraded result is a fully consistent
	// (placement, schedule, assignment) triple, just not a converged one.
	faultinject.Disable()
	if err := Audit(c, recoveryConfig(), res); err != nil {
		t.Error(err)
	}
}

// ... and strict mode turns the same failure into a typed hard error.
func TestStrictMidLoopFailure(t *testing.T) {
	defer faultinject.Enable(faultinject.Rule{
		Site: faultinject.SitePlacerIncremental, Call: 1,
		Err: errors.New("injected internal failure"),
	})()
	cfg := recoveryConfig()
	cfg.Strict = true
	_, err := Run(genCircuit(t, 200, 24, 15), cfg)
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StageError", err)
	}
	if se.Stage != 6 || se.Iter != 1 || se.Kind != Internal {
		t.Errorf("StageError = %+v, want stage 6 iter 1 internal", se)
	}
}

// Kind: BudgetExceeded, stage 3 (ILP formulation): a budget-exhausted LP
// relaxation mid-loop is not recoverable by the infeasibility ladder, so the
// flow degrades to the best snapshot.
func TestDegradedOnBudgetExceeded(t *testing.T) {
	defer faultinject.Enable(faultinject.Rule{
		Site: faultinject.SiteAssignMinMaxCap, Call: 2, // call 1 builds the base case
		Err: fmt.Errorf("injected: %w", lp.ErrBudget),
	})()
	cfg := recoveryConfig()
	cfg.Assigner = ILP
	res, err := Run(genCircuit(t, 200, 24, 16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("mid-loop budget exhaustion must degrade, not error")
	}
	last := res.Events[len(res.Events)-1]
	if last.Stage != 3 || last.Kind != BudgetExceeded {
		t.Errorf("degradation event = %+v, want stage 3 budget-exceeded", last)
	}
}

// Kind: InvalidInput, stage 3: an ill-formed LP (a flow bug surfaced as
// lp.ErrBadProblem) before the base case is a typed hard error.
func TestInvalidInputIsTypedError(t *testing.T) {
	defer faultinject.Enable(faultinject.Rule{
		Site: faultinject.SiteLPSolve, Call: 0,
		Err: fmt.Errorf("injected: %w", lp.ErrBadProblem),
	})()
	cfg := recoveryConfig()
	cfg.Assigner = ILP
	_, err := Run(genCircuit(t, 200, 24, 16), cfg)
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StageError", err)
	}
	if se.Stage != 3 || se.Kind != InvalidInput {
		t.Errorf("StageError = %+v, want stage 3 invalid-input", se)
	}
}

// A clean run records no events and is never degraded: the recovery layer is
// invisible unless something actually failed.
func TestCleanRunHasNoEvents(t *testing.T) {
	res, err := Run(genCircuit(t, 200, 24, 17), recoveryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || len(res.Events) != 0 {
		t.Errorf("clean run: degraded=%v events=%v", res.Degraded, res.Events)
	}
}

// A zero-flip-flop circuit runs Run's own stage 1 on the one placement
// system the run builds from it, and the run leaves through the
// partial-result exit with the "no flip-flops" event, not Degraded.
func TestZeroFFRunPartialResult(t *testing.T) {
	cfg := recoveryConfig()
	cfg.Obs = obs.NewRegistry()
	res, err := Run(genCircuit(t, 120, 0, 21), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.Counter("placer.system.builds"); got != 1 {
		t.Errorf("placer.system.builds = %d, want 1", got)
	}
	if res.Degraded {
		t.Error("zero-FF run marked Degraded")
	}
	if eventMatching(res.Events, "no flip-flops") == nil {
		t.Errorf("events = %v, want the no-flip-flops event", res.Events)
	}
	if len(res.Assign.Ring) != 0 || len(res.Schedule) != 0 || res.Final.SignalWL <= 0 {
		t.Errorf("zero-FF result: %d rings, %d schedule entries, signal WL %v",
			len(res.Assign.Ring), len(res.Schedule), res.Final.SignalWL)
	}
}

// A zero-flip-flop run shares stage 1's CG retry: a stagnated global
// placement is retried at the looser tolerance, as with flip-flops.
func TestZeroFFRunRetriesStagnatedPlacement(t *testing.T) {
	defer faultinject.Enable(faultinject.Rule{
		Site: faultinject.SitePlacerGlobal, Call: 1,
		Err: fmt.Errorf("injected: %w", placer.ErrNonConverged),
	})()
	res, err := Run(genCircuit(t, 120, 0, 22), recoveryConfig())
	if err != nil {
		t.Fatal(err)
	}
	ev := eventMatching(res.Events, "retrying global placement")
	if ev == nil || ev.Stage != 1 || ev.Kind != NonConverged {
		t.Fatalf("events = %v, want a stage-1 non-converged retry", res.Events)
	}
	if res.Degraded {
		t.Error("retried zero-FF run marked Degraded")
	}
}

// Kind: NonConverged, stage 6. A stagnated incremental placement is retried
// once at the looser tolerance and the loop carries on undegraded.
func TestRecoveryIncrementalNonConverged(t *testing.T) {
	defer faultinject.Enable(faultinject.Rule{
		Site: faultinject.SitePlacerIncremental, Call: 1,
		Err: fmt.Errorf("injected: %w", placer.ErrNonConverged),
	})()
	res, err := Run(genCircuit(t, 200, 24, 15), recoveryConfig())
	if err != nil {
		t.Fatal(err)
	}
	ev := eventMatching(res.Events, "retrying incremental placement")
	if ev == nil || ev.Stage != 6 || ev.Iter != 1 || ev.Kind != NonConverged {
		t.Fatalf("events = %v, want a stage-6 iter-1 non-converged retry", res.Events)
	}
	if res.Degraded {
		t.Error("retried incremental placement degraded the run")
	}
	if res.Iterations < 1 {
		t.Errorf("iterations = %d, want the retried iteration to complete", res.Iterations)
	}
}
