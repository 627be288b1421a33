package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"rotaryclk/internal/core"
	"rotaryclk/internal/eco"
	"rotaryclk/internal/netlist"
)

// postECO runs one /v1/eco request through the server synchronously.
func postECO(s *Server, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/eco", strings.NewReader(body)))
	return rr
}

func postECOAsync(s *Server, body string) <-chan *httptest.ResponseRecorder {
	ch := make(chan *httptest.ResponseRecorder, 1)
	go func() { ch <- postECO(s, body) }()
	return ch
}

// ecoProbe regenerates the request's circuit and returns a flip-flop cell ID
// plus an in-die move target (the cell-position centroid — inside the die by
// convexity), so tests can build deltas that are valid against the real
// netlist without hard-coding generator internals.
func ecoProbe(t *testing.T, cells, ffs int, seed int64) (ffCell int, x, y float64) {
	t.Helper()
	c, err := netlist.Generate(netlist.GenSpec{Name: "probe", Cells: cells, FlipFlops: ffs, Seed: seed})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	ffCell = -1
	var sx, sy float64
	for id, cell := range c.Cells {
		if cell.Kind == netlist.FF && ffCell < 0 {
			ffCell = id
		}
		sx += cell.Pos.X
		sy += cell.Pos.Y
	}
	if ffCell < 0 {
		t.Fatal("generated circuit has no flip-flop")
	}
	n := float64(len(c.Cells))
	return ffCell, sx / n, sy / n
}

// TestECOWarmBaseHit: the first ECO request for a spec builds the base
// placement; the second reuses it (base_hit true, one build + one hit in the
// stats) and absorbs a real move without a system rebuild. The first runs
// on the worker's new fork, the second on the same fork after the first's
// revert, and the two identical requests report byte-equal counters.
func TestECOWarmBaseHit(t *testing.T) {
	s := New(testConfig())
	defer drainNow(t, s)

	ff, x, y := ecoProbe(t, 60, 8, 1)
	body := fmt.Sprintf(
		`{"circuit":{"cells":60,"flipflops":8,"seed":1},"rings":4,"iters":2,"telemetry":true,"deltas":[{"op":"move_ff","cell":%d,"x":%.4f,"y":%.4f}]}`,
		ff, x, y)

	var resps [2]ECOResponse
	for i := range resps {
		rr := postECO(s, body)
		if rr.Code != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, rr.Code, rr.Body)
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &resps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if resps[0].BaseHit {
		t.Error("first request claims a base hit")
	}
	if len(resps[0].Counters) == 0 || !bytes.Equal(resps[0].Counters, resps[1].Counters) {
		t.Errorf("identical requests report different counters:\n%s\nvs\n%s", resps[0].Counters, resps[1].Counters)
	}
	if resps[0].Final != resps[1].Final {
		t.Errorf("identical requests answer %+v and %+v", resps[0].Final, resps[1].Final)
	}
	if !resps[1].BaseHit {
		t.Error("second request missed the warm base")
	}
	for i, resp := range resps {
		if resp.Degraded {
			t.Errorf("request %d degraded: %v", i, resp.Events)
		}
		if resp.Applied != 1 || resp.NoOps != 0 {
			t.Errorf("request %d: applied/noops = %d/%d, want 1/0", i, resp.Applied, resp.NoOps)
		}
		if resp.SystemRebuilt {
			t.Errorf("request %d: a pure move forced a system rebuild", i)
		}
		if resp.DirtyFFs < 1 {
			t.Errorf("request %d: moved flip-flop not re-routed (dirty_ffs=%d)", i, resp.DirtyFFs)
		}
	}
	if b := s.stats.ecoBaseBuilds.Load(); b != 1 {
		t.Errorf("ecoBaseBuilds = %d, want 1", b)
	}
	if h := s.stats.ecoBaseHits.Load(); h != 1 {
		t.Errorf("ecoBaseHits = %d, want 1", h)
	}
	if n := cacheLen(&s.ecoBases); n != 1 {
		t.Errorf("base cache len %d, want 1", n)
	}
}

// TestECODeadlineDegrades: a 1ms deadline is consumed by the (untimed,
// shared) base build, so the apply starts with its token already fired and
// must answer 200 with a rolled-back degraded outcome, not an error — the
// non-strict contract of the flow carried over to ECO.
func TestECODeadlineDegrades(t *testing.T) {
	s := New(testConfig())
	defer drainNow(t, s)
	// Pad the (untimed) base build past the request deadline so the apply
	// deterministically starts with a fired token, machine speed aside.
	realFlow := s.runFlow
	s.runFlow = func(c *netlist.Circuit, cfg core.Config) (*core.Result, error) {
		time.Sleep(10 * time.Millisecond)
		return realFlow(c, cfg)
	}

	ff, x, y := ecoProbe(t, 60, 8, 2)
	body := fmt.Sprintf(
		`{"circuit":{"cells":60,"flipflops":8,"seed":2},"rings":4,"iters":2,"deadline_ms":1,"deltas":[{"op":"move_ff","cell":%d,"x":%.4f,"y":%.4f}]}`,
		ff, x, y)
	rr := postECO(s, body)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d body %s", rr.Code, rr.Body)
	}
	var resp ECOResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatalf("deadlined ECO not degraded: %+v", resp)
	}
	if len(resp.Events) == 0 || !strings.Contains(resp.Events[len(resp.Events)-1], "rolled back") {
		t.Errorf("degraded response without a rollback event: %v", resp.Events)
	}
	if got := s.stats.deadlined.Load(); got != 1 {
		t.Errorf("deadlined = %d, want 1", got)
	}

	// Strict mode turns the same deadline into a 422, never a silent
	// rollback. A fresh spec keeps the base cold so the build consumes the
	// deadline again (the warm-base path would finish inside 1ms).
	ff6, x6, y6 := ecoProbe(t, 60, 8, 6)
	strictBody := fmt.Sprintf(
		`{"circuit":{"cells":60,"flipflops":8,"seed":6},"rings":4,"iters":2,"deadline_ms":1,"strict":true,"deltas":[{"op":"move_ff","cell":%d,"x":%.4f,"y":%.4f}]}`,
		ff6, x6, y6)
	if rr := postECO(s, strictBody); rr.Code != http.StatusUnprocessableEntity {
		t.Errorf("strict deadlined ECO: status %d body %s, want 422", rr.Code, rr.Body)
	}
}

// TestECOCleanAnswerPastDeadline: deadline_exceeded counts answers the fired
// token degraded, not every answer that returns after it fired. The hooked
// apply runs untimed, so its answer is clean, and returns only once the
// request's token has fired.
func TestECOCleanAnswerPastDeadline(t *testing.T) {
	s := New(testConfig())
	defer drainNow(t, s)
	s.runECO = func(st *eco.State, deltas []eco.Delta, cfg core.Config, opt eco.Options) (*core.ECOResult, error) {
		tok := cfg.Stop
		cfg.Stop = nil
		res, err := core.ApplyECO(st, deltas, cfg, opt)
		for !tok.Stopped() {
			time.Sleep(time.Millisecond)
		}
		return res, err
	}

	ff, x, y := ecoProbe(t, 60, 8, 8)
	body := fmt.Sprintf(
		`{"circuit":{"cells":60,"flipflops":8,"seed":8},"rings":4,"iters":2,"deadline_ms":20,"deltas":[{"op":"move_ff","cell":%d,"x":%.4f,"y":%.4f}]}`,
		ff, x, y)
	rr := postECO(s, body)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d body %s", rr.Code, rr.Body)
	}
	var resp ECOResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Degraded {
		t.Fatalf("untimed apply degraded: %v", resp.Events)
	}
	if got := s.stats.deadlined.Load(); got != 0 {
		t.Errorf("deadlined = %d for a clean answer, want 0", got)
	}
}

// TestTemplateSharedAcrossEndpoints: a job and an ECO request on one spec
// share the spec's template — the ECO request's base flow starts from the
// stage-1 placement the job published — and each answer equals the one a
// fresh server gives that request alone.
func TestTemplateSharedAcrossEndpoints(t *testing.T) {
	ff, x, y := ecoProbe(t, 60, 8, 9)
	jobBody := `{"circuit":{"cells":60,"flipflops":8,"seed":9},"rings":4,"iters":2}`
	ecoBody := fmt.Sprintf(
		`{"circuit":{"cells":60,"flipflops":8,"seed":9},"rings":4,"iters":2,"deltas":[{"op":"move_ff","cell":%d,"x":%.4f,"y":%.4f}]}`,
		ff, x, y)
	decode := func(rr *httptest.ResponseRecorder, v any) {
		t.Helper()
		if rr.Code != http.StatusOK {
			t.Fatalf("status %d body %s", rr.Code, rr.Body)
		}
		if err := json.Unmarshal(rr.Body.Bytes(), v); err != nil {
			t.Fatal(err)
		}
	}

	s := New(testConfig())
	defer drainNow(t, s)
	var job, freshJob JobResponse
	var edit, freshEdit ECOResponse
	decode(post(s, jobBody), &job)
	decode(postECO(s, ecoBody), &edit)
	if b, h := s.stats.templateBuilds.Load(), s.stats.templateHits.Load(); b != 1 || h != 1 {
		t.Errorf("template builds/hits = %d/%d, want 1/1", b, h)
	}
	if job.PlacementHit {
		t.Error("the spec's first job claims a placement hit")
	}
	if p, h := s.stats.placementPublishes.Load(), s.stats.placementHits.Load(); p != 1 || h != 1 {
		t.Errorf("placement publishes/hits = %d/%d, want 1/1 (the job publishes, the ECO base build reuses)", p, h)
	}

	freshJobs, freshECO := New(testConfig()), New(testConfig())
	defer drainNow(t, freshJobs)
	defer drainNow(t, freshECO)
	decode(post(freshJobs, jobBody), &freshJob)
	decode(postECO(freshECO, ecoBody), &freshEdit)
	if job.Final != freshJob.Final || job.MaxSlackPS != freshJob.MaxSlackPS {
		t.Errorf("job on a shared template differs from a fresh server's: %+v vs %+v", job.Final, freshJob.Final)
	}
	if edit.Final != freshEdit.Final || edit.TapTotalUM != freshEdit.TapTotalUM || edit.DirtyFFs != freshEdit.DirtyFFs {
		t.Errorf("ECO on a shared template differs from a fresh server's: tap %v vs %v", edit.TapTotalUM, freshEdit.TapTotalUM)
	}
}

// TestECODrainAnswersInFlight: Drain lets an in-flight ECO request finish
// and answer its caller while new ECO work is rejected with 503 — the same
// graceful-drain contract placement jobs have.
func TestECODrainAnswersInFlight(t *testing.T) {
	s := New(testConfig())
	started := make(chan struct{}, 8)
	unblock := make(chan struct{})
	s.runECO = func(st *eco.State, deltas []eco.Delta, cfg core.Config, opt eco.Options) (*core.ECOResult, error) {
		started <- struct{}{}
		<-unblock
		return &core.ECOResult{Outcome: &eco.Outcome{Deltas: len(deltas)}}, nil
	}

	ff, x, y := ecoProbe(t, 60, 8, 3)
	body := fmt.Sprintf(
		`{"circuit":{"cells":60,"flipflops":8,"seed":3},"rings":4,"iters":2,"deltas":[{"op":"move_ff","cell":%d,"x":%.4f,"y":%.4f}]}`,
		ff, x, y)

	inflight := postECOAsync(s, body)
	<-started

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitFor(t, "draining flag", s.Draining)

	if rr := postECO(s, body); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("ECO during drain: status %d, want 503", rr.Code)
	}

	close(unblock)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	rr := <-inflight
	if rr.Code != http.StatusOK {
		t.Fatalf("in-flight ECO after drain: status %d body %s", rr.Code, rr.Body)
	}
	var resp ECOResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Applied != 1 {
		t.Errorf("in-flight ECO applied %d deltas, want 1", resp.Applied)
	}
}

// TestECOBadRequests: malformed ECO requests answer 400 at admission; a
// well-formed request whose delta is semantically invalid against the real
// circuit answers 422 from the worker.
func TestECOBadRequests(t *testing.T) {
	s := New(testConfig())
	defer drainNow(t, s)
	cases := []string{
		``,
		`{`,
		`{"circuit":{"cells":60,"flipflops":8,"seed":4}}`,
		`{"circuit":{"cells":60,"flipflops":8,"seed":4},"deltas":[]}`,
		`{"circuit":{"cells":60,"flipflops":8,"seed":4},"deltas":[{"op":"teleport_ff","cell":1}]}`,
		`{"circuit":{"cells":60,"flipflops":8,"seed":4},"deltas":[{"op":"move_ff","cell":-1}]}`,
		`{"circuit":{"cells":60,"flipflops":8,"seed":4},"deltas":[{"op":"retarget_ring","cell":1,"ring":4096}]}`,
		`{"circuit":{"cells":0},"deltas":[{"op":"add_ff","cell":1}]}`,
		`{"circuit":{"cells":60,"flipflops":8,"seed":4},"deltas":[{"op":"add_ff","cell":1}],"typo":1}`,
		`{"circuit":{"cells":60,"flipflops":8,"seed":4},"deltas":[{"op":"add_ff","cell":1}]}{"again":true}`,
	}
	for _, body := range cases {
		if rr := postECO(s, body); rr.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, rr.Code)
		}
	}

	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/eco", nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/eco: status %d, want 405", rr.Code)
	}

	// Shallowly valid, semantically impossible: the cell index is far past
	// the generated circuit. Admission passes, eco.Apply rejects, 422.
	rr = postECO(s, `{"circuit":{"cells":60,"flipflops":8,"seed":4},"rings":4,"iters":2,"deltas":[{"op":"move_ff","cell":1000000,"x":1,"y":1}]}`)
	if rr.Code != http.StatusUnprocessableEntity {
		t.Errorf("out-of-circuit delta: status %d body %s, want 422", rr.Code, rr.Body)
	}
}

// TestECOMetricsSnapshot: the ECO counters surface in /metrics.
func TestECOMetricsSnapshot(t *testing.T) {
	s := New(testConfig())
	defer drainNow(t, s)
	ff, x, y := ecoProbe(t, 60, 8, 5)
	body := fmt.Sprintf(
		`{"circuit":{"cells":60,"flipflops":8,"seed":5},"rings":4,"iters":2,"deltas":[{"op":"move_ff","cell":%d,"x":%.4f,"y":%.4f}]}`,
		ff, x, y)
	if rr := postECO(s, body); rr.Code != http.StatusOK {
		t.Fatalf("ECO request: status %d body %s", rr.Code, rr.Body)
	}
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var snap StatsSnapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics: %v (%s)", err, rr.Body)
	}
	if snap.ECOBaseBuilds != 1 || snap.ECOBaseHits != 0 {
		t.Errorf("eco base builds/hits = %d/%d, want 1/0", snap.ECOBaseBuilds, snap.ECOBaseHits)
	}
	if snap.Admitted != 1 || snap.Completed != 1 {
		t.Errorf("admitted/completed = %d/%d, want 1/1", snap.Admitted, snap.Completed)
	}
	// The base flow ran stage 1 and published its placement.
	if snap.PlacementPublishes != 1 || snap.PlacementHits != 0 {
		t.Errorf("placement publishes/hits = %d/%d, want 1/0", snap.PlacementPublishes, snap.PlacementHits)
	}
	// The edit lands in the ECO latency window only.
	if snap.Latency.ECO.Count != 1 || snap.Latency.Jobs.Count != 0 {
		t.Errorf("latency counts eco/jobs = %d/%d, want 1/0", snap.Latency.ECO.Count, snap.Latency.Jobs.Count)
	}
	if snap.Latency.ECO.P50MS <= 0 {
		t.Errorf("eco latency summary %+v", snap.Latency.ECO)
	}
}

// TestECOBaseKeyNormalizesIters: iters omitted and iters 5 run the same base
// flow, so the second request must hit the first one's base build.
func TestECOBaseKeyNormalizesIters(t *testing.T) {
	s := New(testConfig())
	defer drainNow(t, s)

	ff, x, y := ecoProbe(t, 60, 8, 1)
	delta := fmt.Sprintf(`"deltas":[{"op":"move_ff","cell":%d,"x":%.4f,"y":%.4f}]`, ff, x, y)
	for i, body := range []string{
		`{"circuit":{"cells":60,"flipflops":8,"seed":1},"rings":4,` + delta + `}`,
		`{"circuit":{"cells":60,"flipflops":8,"seed":1},"rings":4,"iters":5,` + delta + `}`,
	} {
		rr := postECO(s, body)
		if rr.Code != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, rr.Code, rr.Body)
		}
		var resp ECOResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.BaseHit != (i == 1) {
			t.Errorf("request %d: base_hit = %v, want %v", i, resp.BaseHit, i == 1)
		}
	}
	if b := s.stats.ecoBaseBuilds.Load(); b != 1 {
		t.Errorf("ecoBaseBuilds = %d, want 1", b)
	}
}

// TestECOConcurrentSharedBase: 96 concurrent /v1/eco requests on four
// workers, each worker applying on its own fork of the one shared base and
// reverting, patch from the base assignment and its candidate rows and
// update the base STA cache. The eight request bodies are four flip-flop
// moves and four RandomDeltas batches, a net edit (a system rebuild) among
// them. Run under -race this is the check that requests only read the base
// and that no two workers share a fork; every answer, its telemetry
// counters byte for byte included, must also equal the same request's
// answer on a fresh server.
func TestECOConcurrentSharedBase(t *testing.T) {
	const workers, perWorker = 4, 24
	cfg := testConfig()
	cfg.Workers, cfg.QueueDepth = workers, workers*perWorker
	ff, x, y := ecoProbe(t, 60, 8, 1)
	body := func(deltas []eco.Delta) string {
		ds, err := json.Marshal(deltas)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf(`{"circuit":{"cells":60,"flipflops":8,"seed":1},"rings":4,"iters":2,"telemetry":true,"deltas":%s}`, ds)
	}
	var bodies []string
	for k := 0; k < 4; k++ {
		bodies = append(bodies, body([]eco.Delta{{Op: eco.OpMoveFF, Cell: ff, X: x + float64(10*k), Y: y - float64(5*k)}}))
	}
	c, err := netlist.Generate(netlist.GenSpec{Name: "probe", Cells: 60, FlipFlops: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	netEdit := false
	for len(bodies) < 8 || !netEdit {
		ds := eco.RandomDeltas(rng, c, 4, 1+rng.Intn(2))
		edits := slices.ContainsFunc(ds, func(d eco.Delta) bool { return d.Op == eco.OpEditNet })
		if len(bodies) == 7 && !netEdit && !edits {
			continue
		}
		netEdit = netEdit || edits
		bodies = append(bodies, body(ds))
	}
	decode := func(rr *httptest.ResponseRecorder, move bool) ECOResponse {
		t.Helper()
		if rr.Code != http.StatusOK {
			t.Fatalf("status %d body %s", rr.Code, rr.Body)
		}
		var resp ECOResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Degraded {
			t.Fatalf("degraded: %v", resp.Events)
		}
		// Every request updates the base's STA cache: no full build, and a
		// move re-propagates fewer sources than the base has flip-flops
		// (a retarget alone re-propagates none).
		var counters map[string]int64
		if err := json.Unmarshal(resp.Counters, &counters); err != nil {
			t.Fatalf("counters: %v", err)
		}
		full, src := counters["eco.sta.full"], counters["eco.sta.sources"]
		if full != 0 || move && (src == 0 || src >= 8) {
			t.Fatalf("STA work: full %d, sources %d of 8 flip-flops", full, src)
		}
		return resp
	}

	s := New(cfg)
	defer drainNow(t, s)
	chs := make([]<-chan *httptest.ResponseRecorder, workers*perWorker)
	for i := range chs {
		chs[i] = postECOAsync(s, bodies[i%len(bodies)])
	}
	got := make([]ECOResponse, len(chs))
	for i, ch := range chs {
		got[i] = decode(<-ch, i%len(bodies) < 4)
	}
	if b := s.stats.ecoBaseBuilds.Load(); b != 1 {
		t.Errorf("ecoBaseBuilds = %d, want 1", b)
	}

	rebuilt := false
	for k, body := range bodies {
		fresh := New(cfg)
		want := decode(postECO(fresh, body), k < 4)
		drainNow(t, fresh)
		rebuilt = rebuilt || want.SystemRebuilt
		for i := k; i < len(got); i += len(bodies) {
			if got[i].TapTotalUM != want.TapTotalUM || got[i].Final != want.Final || got[i].DirtyFFs != want.DirtyFFs ||
				got[i].SystemRebuilt != want.SystemRebuilt {
				t.Errorf("request %d: concurrent answer (tap %v, dirty %d) differs from a fresh server's (tap %v, dirty %d)",
					i, got[i].TapTotalUM, got[i].DirtyFFs, want.TapTotalUM, want.DirtyFFs)
			}
			if !bytes.Equal(got[i].Counters, want.Counters) {
				t.Errorf("request %d: counters differ from a fresh server's:\n%s\nvs\n%s", i, got[i].Counters, want.Counters)
			}
		}
	}
	if !rebuilt {
		t.Error("no request rebuilt the quadratic system")
	}
}
