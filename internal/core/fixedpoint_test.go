package core

import (
	"fmt"
	"reflect"
	"testing"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/obs"
)

// skippedRounds returns the iterations of a traced run whose round-1
// stage 3 was skipped at the inner fixed point: round 1's stage 4 ran, its
// stage 3 did not.
func skippedRounds(snap *obs.Snapshot) map[string]bool {
	has := func(s *obs.SpanData, name string) bool {
		for _, c := range s.Children {
			if c.Name == name && reflect.DeepEqual(c.Attrs, []obs.Attr{obs.I("round", 1)}) {
				return true
			}
		}
		return false
	}
	out := map[string]bool{}
	var walk func(s *obs.SpanData)
	walk = func(s *obs.SpanData) {
		if s.Name == "flow.iter" && has(s, "stage4.skew") && !has(s, "stage3.assign") {
			out[s.Attrs[0].Val] = true
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, s := range snap.Spans {
		walk(s)
	}
	return out
}

// TestFixedPointSkipMatchesSolve: where round 1's stage 3 is skipped
// because its schedule is bit-equal to round 0's, the assignment the run
// keeps equals one solved cold from that schedule and those positions, bit
// for bit. Each run whose best iterate is such a round is checked against
// a fresh MinCost or MinMaxCap of the result's schedule on the restored
// placement; the skip must have fired and decided the result at least
// once over the seeds.
func TestFixedPointSkipMatchesSolve(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 6; seed++ {
		for _, a := range []Assigner{NetworkFlow, ILP} {
			reg := obs.NewRegistry()
			c := genCircuit(t, 400, 60, seed)
			res, err := Run(c, Config{NumRings: 9, MaxIters: 3, Assigner: a, Obs: reg})
			if err != nil || res.Degraded || len(res.Events) > 0 {
				t.Fatalf("seed %d %v: %v, degraded %v, events %v", seed, a, err, res.Degraded, res.Events)
			}
			skipped := skippedRounds(res.Metrics)
			if n := res.Metrics.Counter("core.stage3.fixedpoint"); n != int64(len(skipped)) {
				t.Fatalf("seed %d %v: core.stage3.fixedpoint %d, %d skipped rounds in the spans", seed, a, n, len(skipped))
			}
			best := 0
			for best < len(res.PerIter) && res.PerIter[best] != res.Final {
				best++
			}
			if best == 0 || !skipped[fmt.Sprint(best)] {
				continue
			}
			ffs := make([]assign.FF, len(res.FFCells))
			for i, id := range res.FFCells {
				ffs[i] = assign.FF{Cell: id, Pos: c.Cells[id].Pos, Target: res.Schedule[i]}
			}
			p := &assign.Problem{Array: res.Array, FFs: ffs, Parallelism: 1}
			var want *assign.Assignment
			if a == ILP {
				want, _, err = assign.MinMaxCap(p)
			} else {
				want, err = assign.MinCost(p)
			}
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, a, err)
			}
			got := res.Assign
			if !reflect.DeepEqual(got.Ring, want.Ring) || !reflect.DeepEqual(got.Taps, want.Taps) ||
				!reflect.DeepEqual(got.Loads, want.Loads) || got.Total != want.Total || got.MaxCap != want.MaxCap {
				t.Fatalf("seed %d %v: the skipped round's assignment differs from a solve of its schedule", seed, a)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no run kept an assignment from a skipped round")
	}
	t.Logf("%d runs kept an assignment from a skipped round", checked)
}

// TestFixedPointKeepsLadderEvents: a run whose stage 3 climbs the
// relaxation ladder records the events it recorded before the skip
// existed, and an iteration with a stage-3 event never skips its round 1:
// a round 0 that recorded one is solved again. The n-th stage-3 solve is
// made infeasible, for each solve up to the first that the skip removes
// (the seventh): the base call, then both rounds of iterations 1 and 2 and
// round 0 of iteration 3, whose round 1 the skip removes when nothing is
// injected. Each wants the one event the flow recorded before the skip.
func TestFixedPointKeepsLadderEvents(t *testing.T) {
	for _, tc := range []struct{ call, iter int }{{1, 0}, {2, 1}, {3, 1}, {4, 2}, {5, 2}, {6, 3}} {
		for _, a := range []Assigner{NetworkFlow, ILP} {
			reg := obs.NewRegistry()
			undo := faultinject.Enable(faultinject.Rule{
				Site: faultinject.SiteAssignCandidates, Call: tc.call,
				Err: fmt.Errorf("injected: %w", assign.ErrInfeasible),
			})
			c := genCircuit(t, 400, 60, 3)
			cfg := Config{NumRings: 9, MaxIters: 3, Assigner: a, Obs: reg}
			res, err := Run(c, cfg)
			undo()
			if err != nil || res.Degraded {
				t.Fatalf("call %d %v: %v, degraded %v", tc.call, a, err, res.Degraded)
			}
			want := []StageEvent{{Stage: 3, Iter: tc.iter, Kind: Infeasible,
				Action: "relaxing assignment: K widened to 9, ring capacity x1.5"}}
			if len(res.Events) != 1 || res.Events[0].Stage != want[0].Stage || res.Events[0].Iter != want[0].Iter ||
				res.Events[0].Kind != want[0].Kind || res.Events[0].Action != want[0].Action {
				t.Fatalf("call %d %v: events %v, want %v", tc.call, a, res.Events, want)
			}
			if skippedRounds(res.Metrics)[fmt.Sprint(tc.iter)] {
				t.Errorf("call %d %v: iteration %d recorded a stage-3 event and skipped its round 1", tc.call, a, tc.iter)
			}
			if err := Audit(c, cfg, res); err != nil {
				t.Errorf("call %d %v: %v", tc.call, a, err)
			}
		}
	}
}
