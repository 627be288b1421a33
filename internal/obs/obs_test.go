package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Add("x", 1)
	r.Gauge("g", 2.5)
	r.Stat("s", 3)
	if got := r.Snapshot().Counter("x"); got != 0 {
		t.Fatalf("nil Counter = %d, want 0", got)
	}
	sp := r.StartSpan("root")
	if sp != nil {
		t.Fatalf("nil StartSpan = %v, want nil", sp)
	}
	child := sp.Child("c", I("i", 1))
	if child != nil {
		t.Fatalf("nil Child = %v, want nil", child)
	}
	sp.Set(S("k", "v"))
	sp.End()
	snap := r.Snapshot()
	if snap != nil {
		t.Fatalf("nil Snapshot = %v, want nil", snap)
	}
	if got := string(snap.JSON()); got != "null\n" {
		t.Fatalf("nil JSON = %q", got)
	}
	if got := string(snap.CountersJSON()); got != "null\n" {
		t.Fatalf("nil CountersJSON = %q", got)
	}
	if snap.Counter("x") != 0 || snap.SpanSeconds("y") != 0 {
		t.Fatal("nil Snapshot accessors must be zero-valued")
	}
	if !strings.Contains(snap.Text(), "disarmed") {
		t.Fatalf("nil Text = %q", snap.Text())
	}
}

func TestCountersGaugesStats(t *testing.T) {
	r := NewRegistry()
	r.Add("a.b", 2)
	r.Add("a.b", 3)
	r.Gauge("g", 1.5)
	r.Gauge("g", 2.5)
	r.Stat("s", 7)
	if got := r.Snapshot().Counter("a.b"); got != 5 {
		t.Fatalf("Counter = %d, want 5", got)
	}
	snap := r.Snapshot()
	if snap.Counters["a.b"] != 5 || snap.Gauges["g"] != 2.5 || snap.Stats["s"] != 7 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Snapshot is a copy: later mutation must not leak in.
	r.Add("a.b", 100)
	if snap.Counters["a.b"] != 5 {
		t.Fatal("snapshot aliased the live registry")
	}
}

func TestSpanTreeAndRecursiveEnd(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("run", S("circuit", "s27"))
	s1 := root.Child("stage1")
	s1.Set(I("cells", 42))
	s1.End()
	s1.End() // idempotent
	open := root.Child("stage2")
	_ = open.Child("inner") // left open: root.End must close both
	root.End()

	snap := r.Snapshot()
	if got := openSpans(snap); len(got) != 0 {
		t.Fatalf("open spans after root.End: %v", got)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "run" {
		t.Fatalf("roots = %+v", snap.Spans)
	}
	kids := snap.Spans[0].Children
	if len(kids) != 2 || kids[0].Name != "stage1" || kids[1].Name != "stage2" {
		t.Fatalf("children = %+v", kids)
	}
	if len(kids[0].Attrs) != 1 || kids[0].Attrs[0].Key != "cells" || kids[0].Attrs[0].Val != "42" {
		t.Fatalf("stage1 attrs = %+v", kids[0].Attrs)
	}
	if snap.SpanSeconds("run") < snap.SpanSeconds("stage1") {
		t.Fatal("parent duration shorter than child")
	}
}

// openSpans returns the names of the spans in s still open at snapshot time.
func openSpans(s *Snapshot) []string {
	var open []string
	var walk func(d *SpanData)
	walk = func(d *SpanData) {
		if d.Open {
			open = append(open, d.Name)
		}
		for _, c := range d.Children {
			walk(c)
		}
	}
	for _, d := range s.Spans {
		walk(d)
	}
	return open
}

func TestSnapshotOpenSpanReported(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("run")
	root.Child("stuck")
	snap := r.Snapshot()
	got := openSpans(snap)
	if len(got) != 2 { // run and stuck both open
		t.Fatalf("open spans = %v, want [run stuck]", got)
	}
	root.End()
	if got := openSpans(r.Snapshot()); len(got) != 0 {
		t.Fatalf("open spans after End = %v", got)
	}
}

func TestCountersJSONDeterministic(t *testing.T) {
	build := func(order []string) []byte {
		r := NewRegistry()
		for _, k := range order {
			r.Add(k, 1)
		}
		return r.Snapshot().CountersJSON()
	}
	a := build([]string{"z.last", "a.first", "m.mid", "a.first"})
	b := build([]string{"a.first", "m.mid", "a.first", "z.last"})
	if !bytes.Equal(a, b) {
		t.Fatalf("insertion order leaked into CountersJSON:\n%s\nvs\n%s", a, b)
	}
	var decoded map[string]int64
	if err := json.Unmarshal(a, &decoded); err != nil {
		t.Fatalf("CountersJSON not valid JSON: %v", err)
	}
	if decoded["a.first"] != 2 {
		t.Fatalf("decoded = %v", decoded)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Add("c", 1)
	r.Gauge("g", 0.25)
	r.Stat("s", 2)
	sp := r.StartSpan("run", S("k", "v"))
	sp.Child("stage").End()
	sp.End()
	var snap Snapshot
	if err := json.Unmarshal(r.Snapshot().JSON(), &snap); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if snap.Counters["c"] != 1 || snap.Gauges["g"] != 0.25 || snap.Stats["s"] != 2 {
		t.Fatalf("round trip lost scalars: %+v", snap)
	}
	if len(snap.Spans) != 1 || len(snap.Spans[0].Children) != 1 {
		t.Fatalf("round trip lost spans: %+v", snap.Spans)
	}
}

func TestText(t *testing.T) {
	r := NewRegistry()
	r.Add("placer.cg.iters", 12)
	r.Gauge("placer.cg.residual", 1e-7)
	r.Stat("cache.hits", 3)
	sp := r.StartSpan("core.Run", S("circuit", "s27"))
	sp.Child("stage1.place").End()
	sp.End()
	txt := r.Snapshot().Text()
	for _, want := range []string{"placer.cg.iters", "12", "placer.cg.residual", "cache.hits", "core.Run", "stage1.place", "circuit=s27"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("Text missing %q:\n%s", want, txt)
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("run")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add("n", 1)
				r.Stat("s", 1)
			}
			root.Child("worker").End()
		}()
	}
	wg.Wait()
	root.End()
	snap := r.Snapshot()
	if snap.Counters["n"] != 8000 || snap.Stats["s"] != 8000 {
		t.Fatalf("lost updates: %+v", snap.Counters)
	}
	if len(snap.Spans[0].Children) != 8 {
		t.Fatalf("lost spans: %d", len(snap.Spans[0].Children))
	}
}

// BenchmarkDisarmedHook measures the disarmed fast path instrumented code
// pays everywhere: a nil-receiver no-op on a nil *Registry.
func BenchmarkDisarmedHook(b *testing.B) {
	var reg *Registry
	for i := 0; i < b.N; i++ {
		reg.Add("x", 1)
	}
}

func BenchmarkArmedAdd(b *testing.B) {
	r := NewRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Add("x", 1)
	}
}
