package serve

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latWindow is the sliding window of completed-request latencies each
// endpoint's quantiles are computed over. Big enough that p99 is
// meaningful, small enough that /metrics stays cheap.
const latWindow = 4096

// stats is the server's operational counter set plus one latency ring per
// endpoint. The counters are atomics (hot path: one Add per event).
type stats struct {
	admitted           atomic.Int64
	completed          atomic.Int64
	degraded           atomic.Int64
	deadlined          atomic.Int64
	shed               atomic.Int64
	rejectedDraining   atomic.Int64
	panics             atomic.Int64
	failed             atomic.Int64
	templateBuilds     atomic.Int64
	templateHits       atomic.Int64
	placementHits      atomic.Int64
	placementPublishes atomic.Int64
	ecoBaseBuilds      atomic.Int64
	ecoBaseHits        atomic.Int64
	drainForced        atomic.Int64

	jobLat, ecoLat latRing
}

func (s *stats) add(c *atomic.Int64, n int64) { c.Add(n) }

// latRing is one endpoint's completion-latency window. It is mutex-guarded:
// the completion rate is bounded by request duration, so contention is
// negligible.
type latRing struct {
	mu    sync.Mutex
	ring  [latWindow]float64 // milliseconds
	count int64              // total observations (ring index = count % latWindow)
}

// observe records one completed request's latency.
func (r *latRing) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	r.mu.Lock()
	r.ring[r.count%latWindow] = ms
	r.count++
	r.mu.Unlock()
}

// summary reads the window's quantiles.
func (r *latRing) summary() Latency {
	r.mu.Lock()
	lats := make([]float64, min(r.count, latWindow))
	copy(lats, r.ring[:])
	l := Latency{Count: r.count}
	r.mu.Unlock()
	if len(lats) > 0 {
		sort.Float64s(lats)
		l.P50MS = quantile(lats, 0.50)
		l.P90MS = quantile(lats, 0.90)
		l.P99MS = quantile(lats, 0.99)
		l.MaxMS = lats[len(lats)-1]
	}
	return l
}

// Latency summarizes one endpoint's completion-latency window.
type Latency struct {
	Count int64   `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

// EndpointLatency holds one latency summary per endpoint: placement jobs
// run about 30x longer than ECO edits, so one mixed window would show
// neither.
type EndpointLatency struct {
	Jobs Latency `json:"jobs"`
	ECO  Latency `json:"eco"`
}

// StatsSnapshot is the /metrics payload.
type StatsSnapshot struct {
	Admitted           int64 `json:"admitted"`
	Completed          int64 `json:"completed"`
	Degraded           int64 `json:"degraded"`
	DeadlineExceeded   int64 `json:"deadline_exceeded"`
	Shed               int64 `json:"shed"`
	RejectedDraining   int64 `json:"rejected_draining"`
	Panics             int64 `json:"panics"`
	Failed             int64 `json:"failed"`
	TemplateBuilds     int64 `json:"template_builds"`
	TemplateHits       int64 `json:"template_hits"`
	PlacementHits      int64 `json:"placement_hits"`
	PlacementPublishes int64 `json:"placement_publishes"`
	ECOBaseBuilds      int64 `json:"eco_base_builds"`
	ECOBaseHits        int64 `json:"eco_base_hits"`
	DrainForced        int64 `json:"drain_forced"`

	QueueDepth int  `json:"queue_depth"`
	QueueCap   int  `json:"queue_cap"`
	InFlight   int  `json:"in_flight"`
	Draining   bool `json:"draining"`

	Latency EndpointLatency `json:"latency"`
}

func (s *stats) snapshot() *StatsSnapshot {
	return &StatsSnapshot{
		Admitted:           s.admitted.Load(),
		Completed:          s.completed.Load(),
		Degraded:           s.degraded.Load(),
		DeadlineExceeded:   s.deadlined.Load(),
		Shed:               s.shed.Load(),
		RejectedDraining:   s.rejectedDraining.Load(),
		Panics:             s.panics.Load(),
		Failed:             s.failed.Load(),
		TemplateBuilds:     s.templateBuilds.Load(),
		TemplateHits:       s.templateHits.Load(),
		PlacementHits:      s.placementHits.Load(),
		PlacementPublishes: s.placementPublishes.Load(),
		ECOBaseBuilds:      s.ecoBaseBuilds.Load(),
		ECOBaseHits:        s.ecoBaseHits.Load(),
		DrainForced:        s.drainForced.Load(),
		Latency:            EndpointLatency{Jobs: s.jobLat.summary(), ECO: s.ecoLat.summary()},
	}
}

// quantile reads the q-th quantile from a sorted sample (nearest-rank:
// the smallest value with at least ceil(q*n) observations at or below it).
// int(q*n) would be the (one-too-high) rank above it for most q — at n=100
// it reads p99 from the largest sample instead of the 99th — and collapses
// to the maximum for every q at n=1.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
