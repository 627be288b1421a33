package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Snapshot is a point-in-time copy of a registry, safe to marshal or inspect
// after the registry keeps mutating. JSON export is deterministic for a
// given registry state: encoding/json sorts map keys, spans serialize in
// creation order, and CountersJSON narrows to the class that is also
// bit-identical across worker counts.
type Snapshot struct {
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
	Stats    map[string]int64   `json:"stats,omitempty"`
	Spans    []*SpanData        `json:"spans,omitempty"`
}

// SpanData is the exported form of one span subtree.
type SpanData struct {
	Name     string      `json:"name"`
	Attrs    []Attr      `json:"attrs,omitempty"`
	Ms       float64     `json:"ms"`
	Open     bool        `json:"open,omitempty"` // never ended before the snapshot
	Children []*SpanData `json:"children,omitempty"`
}

// Snapshot copies the registry. Nil-safe (returns nil).
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	s := &Snapshot{
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]float64, len(r.gauges)),
		Stats:    make(map[string]int64, len(r.stats)),
	}
	for k, v := range r.counters {
		s.Counters[k] = v
	}
	for k, v := range r.gauges {
		s.Gauges[k] = v
	}
	for k, v := range r.stats {
		s.Stats[k] = v
	}
	roots := append([]*Span(nil), r.roots...)
	r.mu.Unlock()
	for _, sp := range roots {
		s.Spans = append(s.Spans, sp.data())
	}
	return s
}

// JSON renders the full snapshot as indented JSON (map keys sorted by
// encoding/json). Nil-safe: a nil snapshot renders as "null".
func (s *Snapshot) JSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil { // unreachable: the types above always marshal
		return []byte(fmt.Sprintf("{\"error\":%q}", err.Error()))
	}
	return append(b, '\n')
}

// CountersJSON renders only the deterministic counter class, the payload the
// cross-worker-count determinism tests compare byte-for-byte.
func (s *Snapshot) CountersJSON() []byte {
	if s == nil {
		return []byte("null\n")
	}
	b, err := json.MarshalIndent(s.Counters, "", "  ")
	if err != nil {
		return []byte(fmt.Sprintf("{\"error\":%q}", err.Error()))
	}
	return append(b, '\n')
}

// Counter returns a counter's value from the snapshot (0 if absent or nil).
func (s *Snapshot) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	return s.Counters[name]
}

// SpanSeconds sums the durations of every span named name in the trees.
// Handy for telemetry tables ("seconds in stage6.place across iterations").
func (s *Snapshot) SpanSeconds(name string) float64 {
	return s.SpanTotals()[name]
}

// SpanTotals sums the span durations in the trees by span name, in
// seconds: SpanSeconds of every name at once. Nil-safe (returns nil).
func (s *Snapshot) SpanTotals() map[string]float64 {
	if s == nil {
		return nil
	}
	ms := map[string]float64{}
	var walk func(d *SpanData)
	walk = func(d *SpanData) {
		ms[d.Name] += d.Ms
		for _, c := range d.Children {
			walk(c)
		}
	}
	for _, d := range s.Spans {
		walk(d)
	}
	for name, v := range ms {
		ms[name] = v / 1000
	}
	return ms
}

// Text renders the snapshot human-readably: sorted counters, gauges and
// stats, then the span trees indented with per-span milliseconds.
func (s *Snapshot) Text() string {
	if s == nil {
		return "observability disarmed\n"
	}
	var b strings.Builder
	section := func(title string, names []string, val func(string) string) {
		if len(names) == 0 {
			return
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "%s:\n", title)
		for _, k := range names {
			fmt.Fprintf(&b, "  %-40s %s\n", k, val(k))
		}
	}
	section("counters", keys(s.Counters), func(k string) string {
		return fmt.Sprintf("%d", s.Counters[k])
	})
	section("gauges", keys(s.Gauges), func(k string) string {
		return fmt.Sprintf("%g", s.Gauges[k])
	})
	section("stats", keys(s.Stats), func(k string) string {
		return fmt.Sprintf("%d", s.Stats[k])
	})
	if len(s.Spans) > 0 {
		fmt.Fprintf(&b, "spans:\n")
		var walk func(d *SpanData, depth int)
		walk = func(d *SpanData, depth int) {
			pad := strings.Repeat("  ", depth+1)
			line := fmt.Sprintf("%s%s %.2fms", pad, d.Name, d.Ms)
			if d.Open {
				line += " (open)"
			}
			for _, a := range d.Attrs {
				line += fmt.Sprintf(" %s=%s", a.Key, a.Val)
			}
			b.WriteString(line + "\n")
			for _, c := range d.Children {
				walk(c, depth+1)
			}
		}
		for _, d := range s.Spans {
			walk(d, 0)
		}
	}
	return b.String()
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
