package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"rotaryclk/internal/core"
	"rotaryclk/internal/eco"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/serve"
)

// The serve workload's traffic: independent users, so an open loop at fixed
// rates, from one process over at most nproc client connections.
const (
	jobRate       = 4 // /v1/jobs requests per second
	ecoRate       = 8 // /v1/eco requests per second
	jobSpecs      = 6 // distinct job circuits, cycled
	jobDeadlineMS = 2000
	ecoDeadlineMS = 1000
	// lateLimit invalidates a run whose generator issued its requests
	// later than this at the 95th percentile: the load was not offered.
	lateLimit = 50 * time.Millisecond
)

// serveReq is one request of the schedule.
type serveReq struct {
	due time.Duration
	job *serve.JobRequest // exactly one of job and eco is set
	eco *serve.ECORequest
}

func (r serveReq) path() string {
	if r.eco != nil {
		return "/v1/eco"
	}
	return "/v1/jobs"
}

func (r serveReq) body(telemetry bool) ([]byte, error) {
	if r.eco != nil {
		e := *r.eco
		e.Telemetry = telemetry
		return json.Marshal(e)
	}
	j := *r.job
	j.Telemetry = telemetry
	return json.Marshal(j)
}

// serveAnswer is what the client saw for one request.
type serveAnswer struct {
	status int
	body   []byte
	err    error
	lat    time.Duration // from the request's due time to the end of its response
}

// serveSchedule builds the request schedule: jobs cycling over jobSpecs
// circuits with the assigner alternating flow/ilp, and single-delta ECO
// requests against one base spec, the deltas drawn from rand.New(seed).
func serveSchedule(o options, tr *tracer) ([]serveReq, error) {
	nJobs := max(1, int(jobRate*o.seconds+0.5))
	nECO := max(1, int(ecoRate*o.seconds+0.5))
	var reqs []serveReq
	for k := 0; k < nJobs; k++ {
		assigner := "flow"
		if k%2 == 1 {
			assigner = "ilp"
		}
		reqs = append(reqs, serveReq{
			due: time.Duration(k) * time.Second / jobRate,
			job: &serve.JobRequest{
				Circuit:    serve.CircuitSpec{Cells: o.size.jobCells, FlipFlops: o.size.jobFFs, Seed: 1000*o.seed + int64(k%jobSpecs)},
				Assigner:   assigner,
				Iters:      flowIters,
				DeadlineMS: jobDeadlineMS,
			},
		})
	}
	spec := ecoBaseSpec(o)
	base, err := generate(tr, func() (*netlist.Circuit, error) { return netlist.Generate(genSpec("eco", spec)) })
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	for m := 0; m < nECO; m++ {
		ds := eco.RandomDeltas(rng, base, 16, 1)
		if len(ds) == 0 {
			return nil, fmt.Errorf("no legal edit of the ECO base")
		}
		reqs = append(reqs, serveReq{
			due: time.Duration(2*m+1) * time.Second / (2 * ecoRate),
			eco: &serve.ECORequest{Circuit: spec, Iters: flowIters, Deltas: ds, DeadlineMS: ecoDeadlineMS},
		})
	}
	sort.SliceStable(reqs, func(a, b int) bool { return reqs[a].due < reqs[b].due })
	return reqs, nil
}

func ecoBaseSpec(o options) serve.CircuitSpec {
	return serve.CircuitSpec{Cells: o.size.jobCells, FlipFlops: o.size.jobFFs, Seed: 1000*o.seed + 999}
}

// genSpec is the generator input the daemon derives from a circuit spec,
// including the circuit name it gives a job ("job") or an ECO base ("eco").
func genSpec(kind string, s serve.CircuitSpec) netlist.GenSpec {
	return netlist.GenSpec{
		Name:  fmt.Sprintf("%s-c%d-f%d-s%d", kind, s.Cells, s.FlipFlops, s.Seed),
		Cells: s.Cells, FlipFlops: s.FlipFlops, Seed: s.Seed,
	}
}

// daemon is an in-process serve.Server on a loopback listener with the
// client that loads it.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	srv := serve.New(serve.Config{Workers: 2})
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()}},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close stops the daemon and waits for its listener and workers to exit.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.client.CloseIdleConnections()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, d.srv.Drain(ctx))
}

// issue sends reqs open loop and waits for every answer. It returns the
// answers and how late the generator issued each request.
func (d *daemon) issue(reqs []serveReq, telemetry bool) ([]serveAnswer, []time.Duration, error) {
	bodies := make([][]byte, len(reqs))
	due := make([]time.Duration, len(reqs))
	for i, r := range reqs {
		b, err := r.body(telemetry)
		if err != nil {
			return nil, nil, err
		}
		bodies[i], due[i] = b, r.due
	}
	out := make([]serveAnswer, len(reqs))
	var wg sync.WaitGroup
	late := openLoop(wallClock{}, due, func(i int, at time.Time) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = d.post(reqs[i].path(), bodies[i])
			out[i].lat = time.Since(at)
		}()
	})
	wg.Wait()
	return out, late, nil
}

func (d *daemon) post(path string, body []byte) serveAnswer {
	resp, err := d.client.Post(d.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return serveAnswer{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return serveAnswer{status: resp.StatusCode, body: b, err: err}
}

func (d *daemon) stats() (*serve.StatsSnapshot, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s serve.StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return &s, nil
}

// clock is the open-loop generator's time source; tests substitute a fake.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time         { return time.Now() }
func (wallClock) SleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// openLoop calls send(i, dueAt) for each request at dueAt = start+due[i],
// whether or not earlier requests have completed, and returns how late
// each call was made. send must start the request and return; time it
// spends blocked delays every later request. Latency is measured from
// dueAt, so such a stall counts against the requests it delays instead of
// hiding in the generator.
func openLoop(clk clock, due []time.Duration, send func(i int, dueAt time.Time)) []time.Duration {
	start := clk.Now()
	late := make([]time.Duration, len(due))
	for i, d := range due {
		at := start.Add(d)
		clk.SleepUntil(at)
		late[i] = clk.Now().Sub(at)
		send(i, at)
	}
	return late
}

// runServe loads an in-process daemon open loop with placement jobs and
// ECO edits sharing its two workers. Each set-up starts a daemon and warms
// its job templates and ECO base with one request per job circuit and one
// edit. A traced run first replays the first quarter of the schedule
// without telemetry, then runs the whole schedule with telemetry on.
func runServe(o options) (*report, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rep := newReport()
	speed := newSpeedMeter()
	var reqs []serveReq
	var d *daemon
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if reqs, err = serveSchedule(o, tr); err != nil {
			return nil, err
		}
		if d, err = startDaemon(); err != nil {
			return nil, err
		}
		var warm []serveReq
		warmed := map[int64]bool{}
		for _, r := range reqs {
			key := int64(-1) // the ECO base
			if r.job != nil {
				key = r.job.Circuit.Seed
			}
			if !warmed[key] {
				warmed[key] = true
				r.due = 0
				warm = append(warm, r)
			}
		}
		answers, _, err := d.issue(warm, false)
		setups = append(setups, time.Since(t0))
		if err != nil {
			return nil, err
		}
		for k, a := range answers {
			rep.check(a.err == nil && a.status == http.StatusOK, "warm-up %s: status %d: %v %s", warm[k].path(), a.status, a.err, a.body)
		}
		speed.sample()
	}
	defer d.close()

	var replay []serveAnswer
	if tr != nil {
		var prefix []serveReq
		for _, r := range reqs {
			if r.due.Seconds() < o.seconds/4 {
				prefix = append(prefix, r)
			}
		}
		var err error
		if replay, _, err = d.issue(prefix, false); err != nil {
			return nil, err
		}
	}
	answers, late, err := d.issue(reqs, tr != nil)
	if err != nil {
		return nil, err
	}
	st, err := d.stats()
	if err != nil {
		return nil, err
	}
	// The kernel would compete with the daemon for the cores, so the speed
	// is sampled only between set-ups and after the load.
	for i := 0; i < setupReps; i++ {
		speed.sample()
	}

	local := &localAnswers{jobs: map[string]core.Metrics{}, cfg: core.Config{NumRings: 16, MaxIters: flowIters}}
	for i, a := range replay {
		local.check(rep, reqs[i], a)
	}
	var jobs, edits, waits []float64
	var tap, total, power, wcp []float64
	templateHits, baseHits := 0, 0
	for i, a := range answers {
		r := reqs[i]
		ms := msOf(a.lat)
		if r.job != nil {
			jobs = append(jobs, ms)
		} else {
			edits = append(edits, ms)
		}
		s, ok := local.check(rep, r, a)
		if !ok {
			continue
		}
		tap, total = append(tap, s.final.TapWL), append(total, s.final.TotalWL)
		power, wcp = append(power, s.final.TotalPower), append(wcp, s.final.WCP)
		if s.hit && r.job != nil {
			templateHits++
		} else if s.hit {
			baseHits++
		}
		if tr == nil {
			continue
		}
		snap, err := remoteSnapshot(s.counters, s.trace)
		if !rep.check(err == nil && len(snap.Spans) > 0, "%s: unreadable telemetry: %v", r.path(), err) {
			continue
		}
		waits = append(waits, ms-snap.Spans[0].Ms)
		tr.record("serve."+r.path()[len("/v1/"):], a.lat, snap)
	}

	lateMS := make([]float64, len(late))
	for i, l := range late {
		lateMS[i] = msOf(l)
	}
	genLate := percentile(lateMS, 95)
	rep.check(genLate <= msOf(lateLimit), "generator ran %.1f ms late at p95 (limit %v): the load was not offered", genLate, lateLimit)

	v := rep.values
	// The operation is a placement job; the edits are the traffic it
	// shares the workers with, reported under serve.eco_req_*.
	speed.timingValues(v, setups, jobs)
	qualityValues(v, tap, total, power, wcp)
	v["serve.job_p95_ms"] = sample{percentile(jobs, 95), len(jobs)}
	v["serve.eco_req_p50_ms"] = sample{median(edits), len(edits)}
	v["serve.eco_req_p95_ms"] = sample{percentile(edits, 95), len(edits)}
	v["serve.template_hit_ratio"] = sample{float64(templateHits) / float64(max(1, len(jobs))), len(jobs)}
	v["serve.eco_base_hit_ratio"] = sample{float64(baseHits) / float64(max(1, len(edits))), len(edits)}
	v["serve.shed"] = sample{float64(st.Shed), 1}
	v["serve.deadline_exceeded"] = sample{float64(st.DeadlineExceeded), 1}
	v["serve.gen_late_p95_ms"] = sample{genLate, len(late)}
	if tr != nil {
		tr.layerValues(v)
		v["serve.queue_wait_p50_ms"] = sample{median(waits), len(waits)}
		var u, t []time.Duration
		for i, a := range replay {
			u, t = append(u, a.lat), append(t, answers[i].lat)
		}
		overheadValue(v, u, t)
	}
	return rep, nil
}

// localAnswers computes, in this process and without the daemon, the
// answer the daemon must give each request: a core.Run of the job spec, or
// core.ApplyECO of the deltas on a clone of a locally built base. Job
// answers are computed once per spec and assigner.
type localAnswers struct {
	jobs    map[string]core.Metrics
	base    *netlist.Circuit
	baseRes *core.Result
	cfg     core.Config // of the ECO base flow
}

// served is the part of a checked answer the workload reports.
type served struct {
	final    core.Metrics
	hit      bool // template (jobs) or ECO base (edits) was already built
	counters json.RawMessage
	trace    string
}

// check checks one answer: status 200, not Degraded, and equal to the
// local answer. Each call is one attempted operation.
func (l *localAnswers) check(rep *report, r serveReq, a serveAnswer) (served, bool) {
	rep.attempted++
	if !rep.check(a.err == nil && a.status == http.StatusOK, "%s: status %d: %v %s", r.path(), a.status, a.err, a.body) {
		return served{}, false
	}
	if r.job != nil {
		var resp serve.JobResponse
		if !rep.check(json.Unmarshal(a.body, &resp) == nil && !resp.Degraded, "job %+v: bad or degraded answer %s", r.job.Circuit, a.body) {
			return served{}, false
		}
		want, err := l.job(r.job)
		ok := rep.check(err == nil && want == resp.Final, "job %+v (%s): answer differs from a local core.Run: %v", r.job.Circuit, r.job.Assigner, err)
		return served{resp.Final, resp.TemplateHit, resp.Counters, resp.Trace}, ok
	}
	var resp serve.ECOResponse
	if !rep.check(json.Unmarshal(a.body, &resp) == nil && !resp.Degraded, "eco %v: bad or degraded answer %s", r.eco.Deltas, a.body) {
		return served{}, false
	}
	want, err := l.eco(r.eco)
	ok := rep.check(err == nil && want.Outcome.Total == resp.TapTotalUM && want.Final == resp.Final,
		"eco %v: answer differs from a local core.ApplyECO: %v", r.eco.Deltas, err)
	return served{resp.Final, resp.BaseHit, resp.Counters, resp.Trace}, ok
}

func (l *localAnswers) job(r *serve.JobRequest) (core.Metrics, error) {
	key := fmt.Sprintf("%+v/%s", r.Circuit, r.Assigner)
	if m, ok := l.jobs[key]; ok {
		return m, nil
	}
	c, err := netlist.Generate(genSpec("job", r.Circuit))
	if err != nil {
		return core.Metrics{}, err
	}
	cfg := core.Config{NumRings: 16, MaxIters: r.Iters}
	if r.Assigner == "ilp" {
		cfg.Assigner = core.ILP
	}
	res, err := core.Run(c, cfg)
	if err != nil {
		return core.Metrics{}, err
	}
	l.jobs[key] = res.Final
	return res.Final, nil
}

func (l *localAnswers) eco(r *serve.ECORequest) (*core.ECOResult, error) {
	if l.base == nil {
		c, err := netlist.Generate(genSpec("eco", r.Circuit))
		if err != nil {
			return nil, err
		}
		res, err := core.Run(c, l.cfg)
		if err != nil {
			return nil, err
		}
		l.base, l.baseRes = c, res
	}
	st, err := core.NewECOState(l.base.Clone(), l.cfg, l.baseRes)
	if err != nil {
		return nil, err
	}
	return core.ApplyECO(st, r.Deltas, l.cfg, eco.Options{})
}
