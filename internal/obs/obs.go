// Package obs is the flow's observability layer: named counters, gauges,
// hierarchical wall-clock spans, and a registry that exports them as
// deterministic JSON or human-readable text. Telemetry is on exactly when a
// caller constructs a registry with NewRegistry and threads it through the
// solver option structs (core.Config.Obs, placer.Options.Obs,
// lp.Options.Obs, assign.Problem.Obs, mcmf.Graph.Obs, eco.Options.Obs).
// A nil *Registry is the disarmed case: every Registry/Span method is a
// no-op on a nil receiver, so instrumented code never branches on "is
// observability on" — it just calls through. No build tags switch it off,
// so the measured binary is the shipped binary. The untraced benchmark/
// runs pass nil registries; the traced ones measure the armed cost as
// trace.overhead_frac.
//
// Metric classes and the determinism contract (DESIGN.md section 9):
//
//   - Counters (Add) are monotonically increasing int64s whose increments
//     are commutative, so their totals are bit-identical for every worker
//     count — they are part of the flow's determinism contract and are
//     compared across -j values by the determinism tests.
//   - Gauges (Gauge) are last-write-wins float64s (e.g. the CG exit
//     residual). Concurrent axis solves race on the "last" write, so gauges
//     are excluded from cross-worker-count comparison.
//   - Stats (Stat) are int64 tallies that legitimately depend on scheduling
//     (branch-and-bound budget stops under time limits). They are reported
//     but never compared across -j values.
package obs

import (
	"strconv"
	"sync"
)

// Registry collects counters, gauges, stats, and span trees. The zero value
// is not usable; construct with NewRegistry. All methods are safe for
// concurrent use and are no-ops on a nil receiver.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	stats    map[string]int64
	roots    []*Span
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		stats:    make(map[string]int64),
	}
}

// Add increments a deterministic counter (bit-identical across worker
// counts; see the package comment for the class contract).
func (r *Registry) Add(name string, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += n
	r.mu.Unlock()
}

// Gauge sets a last-write-wins gauge.
func (r *Registry) Gauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Stat increments a scheduling-dependent tally (reported, never compared
// across worker counts).
func (r *Registry) Stat(name string, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.stats[name] += n
	r.mu.Unlock()
}

// StartSpan opens a root span. Returns nil (a no-op span) on a nil registry,
// so callers never check.
func (r *Registry) StartSpan(name string, attrs ...Attr) *Span {
	if r == nil {
		return nil
	}
	s := newSpan(name, attrs)
	r.mu.Lock()
	r.roots = append(r.roots, s)
	r.mu.Unlock()
	return s
}

// Attr is one key/value annotation on a span. Values are pre-rendered
// strings so that span recording never needs reflection.
type Attr struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// S builds a string attribute.
func S(k, v string) Attr { return Attr{Key: k, Val: v} }

// I builds an integer attribute.
func I(k string, v int) Attr { return Attr{Key: k, Val: strconv.Itoa(v)} }

// F builds a float attribute (compact %g rendering).
func F(k string, v float64) Attr {
	return Attr{Key: k, Val: strconv.FormatFloat(v, 'g', 6, 64)}
}
