package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"rotaryclk/internal/obs"
)

// toy shrinks every workload so that all of them, timed and traced, run in
// a few seconds.
var toy = sizes{
	suiteScale: 0.05, suitePass: time.Second,
	blockCells: 300, blockFFs: 6, blockFlow: time.Second,
	warmCells: 200, warmFFs: 4,
	ecoCells: 300, ecoFFs: 30, ecoEdit: 100 * time.Millisecond,
	jobCells: 300, jobFFs: 30,
}

const specPath = "../BENCHMARK.json"

func TestSpecNamesTheHarnessWorkloads(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if got := unitOf(m.Name); got != m.Unit {
			t.Errorf("%s: printed with unit %s, BENCHMARK.json says %s", m.Name, got, m.Unit)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload at toy size, timed and
// traced, through the command's own entry point, and checks the result line.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.Name, trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-spec", specPath, "-workload", w.Name, "-seed", "3", "-seconds", "0.5", "-trace", fmt.Sprint(trace)}
				if code := run(args, &stdout, &stderr, toy); code != 0 {
					t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := spec.EndToEnd
				if trace == 1 {
					defs = spec.PerLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("%s: unit %q, want %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s: not finite", d.Name)
					case trace == 0 && m.Value <= 0:
						t.Errorf("%s: end-to-end metric is %v, must be positive", d.Name, m.Value)
					}
				}
			})
		}
	}
}

func span(name string, ms float64, children ...*obs.SpanData) *obs.SpanData {
	return &obs.SpanData{Name: name, Ms: ms, Children: children}
}

func TestSelfTimeAggregation(t *testing.T) {
	tr := newTracer()
	tr.record("core.Run", 100*time.Millisecond, &obs.Snapshot{
		Counters: map[string]int64{"mcmf.paths": 3},
		Stats:    map[string]int64{"assign.tapcache.hits": 1, "assign.tapcache.misses": 3},
		Spans: []*obs.SpanData{span("core.Run", 90,
			span("stage1.place", 30),
			span("flow.iter", 50,
				span("stage6.place", 10),
				span("stage4.skew", 20),
				span("stage4.skew", 5),
				span("stage3.assign", 10)))},
	})
	tr.record("core.Run", 40*time.Millisecond, &obs.Snapshot{
		Counters: map[string]int64{"mcmf.paths": 4},
		Spans:    []*obs.SpanData{span("core.Run", 35, span("stage1.place", 20))},
	})
	tr.record("core.Audit", 7*time.Millisecond, nil)

	near := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	near("selfSeconds(core.Run)", tr.selfSeconds("core.Run"), 0.025)             // (90-30-50) + (35-20)
	near("selfSeconds(bench.core.Run)", tr.selfSeconds("bench.core.Run"), 0.015) // (100-90) + (40-35)
	near("selfSeconds(flow.iter)", tr.selfSeconds("flow.iter"), 0.005)
	near("seconds(stage1.place)", tr.seconds("stage1.place"), 0.05)

	v := map[string]sample{}
	tr.layerValues(v)
	for name, want := range map[string]float64{
		"core.Run.self_s":           0.025,
		"stage4.skew_s":             0.025,
		"stage4.skew_calls":         2,
		"stage3.assign_calls":       1,
		"core.Audit_s":              0.007,
		"mcmf.paths":                7,
		"assign.tapcache.misses":    3,
		"assign.tapcache.hit_ratio": 0.25,
		"eco.apply_s":               0,
	} {
		near(name, v[name].v, want)
	}
}

func TestRemoteSnapshotRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Add("core.iterations", 2)
	root := reg.StartSpan("core.Run", obs.S("circuit", "x"))
	it := root.Child("flow.iter", obs.I("iter", 1))
	it.Child("stage4.skew").End()
	it.Child("stage3.assign").End()
	it.End()
	root.Child("stage5.evaluate").End()
	root.End()
	want := reg.Snapshot()

	got, err := remoteSnapshot(json.RawMessage(want.CountersJSON()), want.Text())
	if err != nil {
		t.Fatal(err)
	}
	if got.Counter("core.iterations") != 2 {
		t.Errorf("counters: %v", got.Counters)
	}
	var shape func(d *obs.SpanData) string
	shape = func(d *obs.SpanData) string {
		var kids []string
		for _, c := range d.Children {
			kids = append(kids, shape(c))
		}
		return d.Name + "(" + strings.Join(kids, ",") + ")"
	}
	if len(got.Spans) != 1 || shape(got.Spans[0]) != shape(want.Spans[0]) {
		t.Fatalf("span tree %v, want %s", got.Spans, shape(want.Spans[0]))
	}
	if math.Abs(got.Spans[0].Ms-want.Spans[0].Ms) > 0.005 {
		t.Errorf("root ms %v, want %v", got.Spans[0].Ms, want.Spans[0].Ms)
	}
}

// fakeClock advances only when the generator sleeps, and then oversleeps by
// lag; sends may advance it too, modelling a generator that stalls.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
	lag time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.now.Before(t) {
		c.now = t.Add(c.lag)
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0), lag: time.Millisecond}
	start := clk.Now()
	ms := time.Millisecond
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 100 * ms}
	var lat []time.Duration
	late := openLoop(clk, due, func(i int, dueAt time.Time) {
		if want := start.Add(due[i]); !dueAt.Equal(want) {
			t.Errorf("request %d handed due time %v, want %v", i, dueAt, want)
		}
		if i < 3 {
			clk.advance(15 * ms) // the first three sends stall the generator
		}
		lat = append(lat, clk.Now().Sub(dueAt))
	})
	// The stalls make requests 1-3 late; their latency counts the lateness.
	// Request 4 is due after the backlog clears and is late only by lag.
	wantLate := []time.Duration{0, 5 * ms, 10 * ms, 15 * ms, 1 * ms}
	wantLat := []time.Duration{15 * ms, 20 * ms, 25 * ms, 15 * ms, 1 * ms}
	for i := range due {
		if late[i] != wantLate[i] {
			t.Errorf("request %d issued %v late, want %v", i, late[i], wantLate[i])
		}
		if lat[i] != wantLat[i] {
			t.Errorf("request %d latency %v, want %v (measured from its due time)", i, lat[i], wantLat[i])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "x", Better: "higher", Bound: 0.1}
	steady := []float64{100, 100, 101, 99, 100}
	for _, c := range []struct {
		m    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 105, 106, 104, 105}, "within bound"},
		{lower, steady, []float64{120, 120, 121, 119, 120}, "regressed"},
		{lower, steady, []float64{80, 80, 81, 79, 80}, "improved"},
		{higher, steady, []float64{80, 80, 81, 79, 80}, "regressed"},
		{lower, steady, []float64{60, 100, 140, 100, 100}, "unresolved"},
		{lower, steady, []float64{100}, "unresolved"},
	} {
		if got := judge(c.m, c.a, c.b).verdict; got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.m.Better, c.a, c.b, got, c.want)
		}
	}
}
