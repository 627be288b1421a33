package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"rotaryclk/internal/core"
	"rotaryclk/internal/faultinject"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/stop"
)

// placementSpec is the circuit the placement-reuse tests share.
var placementSpec = CircuitSpec{Cells: 240, FlipFlops: 24, Seed: 7}

// postJob sends one job on placementSpec with the given extra fields and
// decodes the 200 answer.
func postJob(t *testing.T, s *Server, extra string) JobResponse {
	t.Helper()
	body := fmt.Sprintf(`{"circuit":{"cells":%d,"flipflops":%d,"seed":%d}%s}`,
		placementSpec.Cells, placementSpec.FlipFlops, placementSpec.Seed, extra)
	rr := post(s, body)
	if rr.Code != http.StatusOK {
		t.Fatalf("job %s: status %d body %s", body, rr.Code, rr.Body)
	}
	var resp JobResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestPlacementReuse: the spec's first job runs stage 1 and publishes its
// placement; every later job on the spec, whatever its rings, assigner,
// objective, iterations or strictness, starts from it (placement_hit) and
// answers exactly what a local from-scratch core.Run of the request gives,
// with no template and no published placement.
func TestPlacementReuse(t *testing.T) {
	s := New(testConfig())
	defer drainNow(t, s)

	first := postJob(t, s, `,"rings":4,"iters":2`)
	if first.PlacementHit {
		t.Fatal("the spec's first job claims a placement hit")
	}
	if p := s.stats.placementPublishes.Load(); p != 1 {
		t.Fatalf("placementPublishes = %d after the first job, want 1", p)
	}

	variants := []struct {
		extra string
		cfg   core.Config
	}{
		{`,"rings":4,"iters":2`, core.Config{NumRings: 4, MaxIters: 2}},
		{`,"rings":9,"iters":2`, core.Config{NumRings: 9, MaxIters: 2}},
		{`,"rings":4,"iters":2,"assigner":"ilp"`, core.Config{NumRings: 4, MaxIters: 2, Assigner: core.ILP}},
		{`,"rings":4,"iters":2,"objective":"sum"`, core.Config{NumRings: 4, MaxIters: 2, Objective: core.WeightedSum}},
		{`,"rings":4,"iters":4`, core.Config{NumRings: 4, MaxIters: 4}},
		{`,"assigner":"ilp","objective":"sum","strict":true`, core.Config{Assigner: core.ILP, Objective: core.WeightedSum, Strict: true}},
	}
	for _, v := range variants {
		got := postJob(t, s, v.extra+`,"telemetry":true`)
		if !got.PlacementHit || !got.TemplateHit {
			t.Errorf("%s: template_hit/placement_hit = %v/%v, want true/true", v.extra, got.TemplateHit, got.PlacementHit)
		}
		c, err := netlist.Generate(placementSpec.genSpec("job"))
		if err != nil {
			t.Fatal(err)
		}
		v.cfg.Parallelism = 1
		want, err := core.Run(c, v.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Base != sanitizeMetrics(want.Base) || got.Final != sanitizeMetrics(want.Final) ||
			got.MaxSlackPS != sanitize(want.MaxSlack) || got.Iterations != want.Iterations ||
			got.Degraded != want.Degraded || len(got.Events) != len(want.Events) {
			t.Errorf("%s: answer differs from a from-scratch core.Run:\n%+v\nwant base %+v final %+v", v.extra, got, want.Base, want.Final)
		}
		// The trace shows stage 1 skipped and the counters its work gone.
		var counters map[string]int64
		if err := json.Unmarshal(got.Counters, &counters); err != nil {
			t.Fatal(err)
		}
		if n := counters["placer.global.calls"]; n != 0 {
			t.Errorf("%s: placer.global.calls = %d on a placement hit", v.extra, n)
		}
	}
	if p, h := s.stats.placementPublishes.Load(), s.stats.placementHits.Load(); p != 1 || h != int64(len(variants)) {
		t.Errorf("placement publishes/hits = %d/%d, want 1/%d", p, h, len(variants))
	}
}

// TestPlacementNotPublishedFromUncleanStage1: a job whose stage 1 retried a
// stagnated solve, or was stopped inside stage 1, publishes nothing, so the
// next job on the spec runs stage 1 itself — and publishes. These tests
// share the process-global injector and must not run in parallel.
func TestPlacementNotPublishedFromUncleanStage1(t *testing.T) {
	cases := []struct {
		name string
		rule faultinject.Rule
	}{
		{"cg-retry", faultinject.Rule{Site: faultinject.SitePlacerCG, Call: 0, Err: errors.New("injected stagnation")}},
		{"stopped", faultinject.Rule{Site: faultinject.SitePlacerCGCancel, Call: 1, Err: stop.ErrDeadlineExceeded}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(testConfig())
			defer drainNow(t, s)

			restore := faultinject.Enable(tc.rule)
			faulted := postJob(t, s, `,"rings":4,"iters":2`)
			restore()
			if len(faulted.Events) == 0 || faulted.Events[0].Stage != 1 {
				t.Fatalf("faulted job recorded no stage-1 event: %+v", faulted.Events)
			}
			if p := s.stats.placementPublishes.Load(); p != 0 {
				t.Fatalf("placementPublishes = %d after an unclean stage 1, want 0", p)
			}

			next := postJob(t, s, `,"rings":4,"iters":2`)
			if next.PlacementHit {
				t.Error("the job after an unclean stage 1 claims a placement hit")
			}
			if len(next.Events) != 0 {
				t.Errorf("clean job recorded events: %+v", next.Events)
			}
			if p, h := s.stats.placementPublishes.Load(), s.stats.placementHits.Load(); p != 1 || h != 0 {
				t.Errorf("placement publishes/hits = %d/%d, want 1/0", p, h)
			}
			if last := postJob(t, s, `,"rings":4,"iters":2`); !last.PlacementHit || last.Final != next.Final {
				t.Errorf("third job: placement_hit %v, final %+v, want true and %+v", last.PlacementHit, last.Final, next.Final)
			}
		})
	}
}

// TestPlacementConcurrentPublish: of identical cold jobs racing on one
// spec, those that start before any publish run stage 1, and exactly one
// publishes; all answer alike, and the next job starts from the published
// placement. Run under -race, this checks that publishing and reading the
// placement are ordered.
func TestPlacementConcurrentPublish(t *testing.T) {
	cfg := testConfig()
	cfg.Workers, cfg.QueueDepth = 4, 16
	s := New(cfg)
	defer drainNow(t, s)

	body := fmt.Sprintf(`{"circuit":{"cells":%d,"flipflops":%d,"seed":%d},"rings":4,"iters":2}`,
		placementSpec.Cells, placementSpec.FlipFlops, placementSpec.Seed)
	chs := make([]<-chan *httptest.ResponseRecorder, 8)
	for i := range chs {
		chs[i] = postAsync(s, body)
	}
	var first JobResponse
	for i, ch := range chs {
		rr := <-ch
		if rr.Code != http.StatusOK {
			t.Fatalf("job %d: status %d body %s", i, rr.Code, rr.Body)
		}
		var resp JobResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = resp
		} else if resp.Final != first.Final || resp.Base != first.Base {
			t.Errorf("job %d answered %+v, job 0 %+v", i, resp.Final, first.Final)
		}
	}
	if p := s.stats.placementPublishes.Load(); p != 1 {
		t.Errorf("placementPublishes = %d, want 1", p)
	}
	hits := s.stats.placementHits.Load()
	if next := postJob(t, s, `,"rings":4,"iters":2`); !next.PlacementHit || next.Final != first.Final {
		t.Errorf("job after the race: placement_hit %v, final %+v, want true and %+v", next.PlacementHit, next.Final, first.Final)
	}
	if h := s.stats.placementHits.Load(); h != hits+1 {
		t.Errorf("placementHits = %d, want %d", h, hits+1)
	}
}
