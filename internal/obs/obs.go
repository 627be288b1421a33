// Package obs is the flow's observability layer: named counters, gauges,
// hierarchical wall-clock spans, and a registry that exports them as
// deterministic JSON or human-readable text. It follows the same
// zero-overhead-when-disarmed discipline as internal/faultinject: the
// disarmed fast path is one atomic pointer load (Resolve(nil) == nil) and
// every Registry/Span method is a no-op on a nil receiver, so instrumented
// code never branches on "is observability on" — it just calls through.
// No build tags switch it off, so the measured binary is the shipped binary.
// The zero-overhead claim is measured by BenchmarkRunAllSuite
// (`go test -bench RunAllSuite ./internal/exp/`); no gate enforces it.
//
// Two ways to obtain a registry:
//
//   - Explicit: construct with NewRegistry and thread it through the solver
//     option structs (core.Config.Obs, placer.Options.Obs, lp.Options.Obs,
//     assign.Problem.Obs, mcmf.Graph.Obs). internal/exp uses this to give
//     every circuit run its own registry.
//   - Global: Enable() installs a process-wide default that Resolve(nil)
//     returns; packages with no natural options struct on the hot path
//     (par) record there. The CLIs arm it for -metrics/-trace.
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
//     (par worker utilization, branch-and-bound budget stops under time
//     limits). They are reported but never compared across -j values.
package obs

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// def is the armed global default registry; nil when disarmed. The disarmed
// fast path everywhere is the single atomic load inside Resolve.
var def atomic.Pointer[Registry]

// Enable installs a fresh global default registry and returns it. Subsequent
// Resolve(nil) calls return it until Disable (or another Enable). Typical
// CLI use: reg := obs.Enable(); defer writeMetrics(reg.Snapshot()).
func Enable() *Registry {
	r := NewRegistry()
	def.Store(r)
	return r
}

// Disable disarms the global default registry.
func Disable() { def.Store(nil) }

// Armed reports whether a global default registry is installed.
func Armed() bool { return def.Load() != nil }

// Default returns the global default registry, or nil when disarmed.
func Default() *Registry { return def.Load() }

// Resolve returns the explicit registry when non-nil, otherwise the global
// default (nil when disarmed). This is the instrumentation entry point:
// resolve once at solver entry, then record through the (possibly nil)
// result — every recording method is a no-op on nil.
func Resolve(r *Registry) *Registry {
	if r != nil {
		return r
	}
	return def.Load()
}

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

// Counter returns the current value of a counter (0 if absent or nil).
func (r *Registry) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
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
