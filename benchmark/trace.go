package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"rotaryclk/internal/obs"
)

// tracer collects the per-layer view of a traced run: one benchmark-owned
// span ("bench.<entry point>") around each call into the program, with the
// span trees the program recorded during that call grafted beneath it, and
// the program's counters and stats summed over all calls. A nil tracer is
// the untraced run: record is a no-op, so the timed code path is the same
// in both modes except for the registries handed to the program.
type tracer struct {
	spans    []*obs.SpanData
	counters map[string]int64
	stats    map[string]int64
}

func newTracer() *tracer {
	return &tracer{counters: map[string]int64{}, stats: map[string]int64{}}
}

// registry returns a fresh registry for one call into the program, or nil
// (observability disarmed) when the run is untraced.
func (t *tracer) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return obs.NewRegistry()
}

// record adds the span of one call of the named entry point, which took d,
// with the program's own telemetry from that call (snap may be nil).
func (t *tracer) record(name string, d time.Duration, snap *obs.Snapshot) {
	if t == nil {
		return
	}
	sp := &obs.SpanData{Name: "bench." + name, Ms: msOf(d)}
	if snap != nil {
		sp.Children = snap.Spans
		for k, v := range snap.Counters {
			t.counters[k] += v
		}
		for k, v := range snap.Stats {
			t.stats[k] += v
		}
	}
	t.spans = append(t.spans, sp)
}

// walk visits every span of every tree, parents before children.
func (t *tracer) walk(fn func(*obs.SpanData)) {
	var rec func(d *obs.SpanData)
	rec = func(d *obs.SpanData) {
		fn(d)
		for _, c := range d.Children {
			rec(c)
		}
	}
	for _, d := range t.spans {
		rec(d)
	}
}

// seconds sums the durations of the spans named name.
func (t *tracer) seconds(name string) float64 {
	return (&obs.Snapshot{Spans: t.spans}).SpanSeconds(name)
}

// selfSeconds sums, over the spans named name, each span's duration minus
// the durations of its direct children.
func (t *tracer) selfSeconds(name string) float64 {
	var ms float64
	t.walk(func(d *obs.SpanData) {
		if d.Name != name {
			return
		}
		ms += d.Ms
		for _, c := range d.Children {
			ms -= c.Ms
		}
	})
	return ms / 1000
}

// calls counts the spans named name.
func (t *tracer) calls(name string) int {
	n := 0
	t.walk(func(d *obs.SpanData) {
		if d.Name == name {
			n++
		}
	})
	return n
}

// Per-layer metrics read from the grafted span trees and counters. Each is
// 0 on a workload that does not exercise its layer.
var (
	// Program spans whose summed duration is reported as <name>_s.
	layerSpans = []string{
		"stage1.place", "stage6.place", "stage2.maxslack", "stage4.slack-refresh",
		"stage4.skew", "stage3.assign", "stage5.evaluate",
		"eco.apply", "eco.netlist", "eco.place", "eco.sched", "eco.assign",
	}
	// Program spans whose count is reported as <name>_calls.
	layerCalls = []string{"stage6.place", "stage4.skew", "stage3.assign"}
	// Benchmark-owned spans (calls the benchmark makes itself) reported as
	// <entry point>_s.
	benchSpans = []string{"netlist.Generate", "timing.Analyze", "core.Audit"}
	// Program counters reported as is.
	layerCounters = []string{
		"placer.cg.iters", "placer.cg.solves", "placer.system.reuses",
		"assign.tap.queries", "mcmf.relaxations", "mcmf.paths",
		"lp.assignlp.pivots", "lp.assignlp.solves",
		"core.iterations", "core.events",
		"eco.dirty.cells", "eco.dirty.ffs", "eco.system.patches", "eco.system.rebuilds",
		"eco.recover.sched", "eco.recover.assign",
	}
)

// layerValues derives the generic per-layer metrics from the trace.
func (t *tracer) layerValues(into map[string]sample) {
	for _, name := range layerSpans {
		into[name+"_s"] = sample{t.seconds(name), t.calls(name)}
	}
	for _, name := range layerCalls {
		into[name+"_calls"] = sample{float64(t.calls(name)), 1}
	}
	for _, name := range benchSpans {
		into[name+"_s"] = sample{t.seconds("bench." + name), t.calls("bench." + name)}
	}
	for _, name := range layerCounters {
		into[name] = sample{float64(t.counters[name]), 1}
	}
	into["core.Run.self_s"] = sample{t.selfSeconds("core.Run"), t.calls("core.Run")}
	hits, misses := t.stats["assign.tapcache.hits"], t.stats["assign.tapcache.misses"]
	into["assign.tapcache.misses"] = sample{float64(misses), 1}
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	into["assign.tapcache.hit_ratio"] = sample{ratio, int(hits + misses)}
}

// remoteSnapshot rebuilds the telemetry a serve response carries (its
// deterministic counters as JSON and its span trees as the indented text
// obs.Snapshot.Text renders) so it can be grafted like a local snapshot.
func remoteSnapshot(counters json.RawMessage, trace string) (*obs.Snapshot, error) {
	snap := &obs.Snapshot{}
	if len(counters) > 0 {
		if err := json.Unmarshal(counters, &snap.Counters); err != nil {
			return nil, fmt.Errorf("decoding counters: %w", err)
		}
	}
	var stack []*obs.SpanData
	inSpans := false
	sc := bufio.NewScanner(strings.NewReader(trace))
	for sc.Scan() {
		line := sc.Text()
		if !inSpans {
			inSpans = line == "spans:"
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || !strings.HasSuffix(fields[1], "ms") {
			return nil, fmt.Errorf("malformed span line %q", line)
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(fields[1], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("span line %q: %w", line, err)
		}
		depth := (len(line)-len(strings.TrimLeft(line, " ")))/2 - 1
		if depth < 0 || depth > len(stack) {
			return nil, fmt.Errorf("span line %q: bad indentation", line)
		}
		d := &obs.SpanData{Name: fields[0], Ms: ms}
		stack = stack[:depth]
		if depth == 0 {
			snap.Spans = append(snap.Spans, d)
		} else {
			parent := stack[depth-1]
			parent.Children = append(parent.Children, d)
		}
		stack = append(stack, d)
	}
	return snap, sc.Err()
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
