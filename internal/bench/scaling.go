// Scaling harness: the size sweep behind `make scaling` and cmd/rotaryscale.
// Each sweep point is one production core.Run of the paper's Fig. 3 flow
// (default Config, ring count from ringsFor) on a synthetic circuit, followed
// by core.Audit, once at Parallelism 1 and once at GOMAXPROCS. Every time in
// a row comes from the run's span snapshot: the core.Run root span, its
// direct children summed by name, and a core.Audit span on the same
// registry. netlist.Generate is outside the flow and is not timed. A row is
// only reported when the run is undegraded, passes Audit, and its final
// quality is bit-equal at both worker counts. The output feeds
// BENCH_scaling.json.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"

	"rotaryclk/internal/core"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/obs"
)

// ScalingOptions configures a size sweep.
type ScalingOptions struct {
	// Sizes are the circuit cell counts to sweep (default geometric
	// 1k..128k, doubling).
	Sizes []int
	// Seed feeds every generated circuit (the per-point spec also folds the
	// size in, so points differ structurally).
	Seed int64
	// Log, when non-nil, receives one progress line per recorded row.
	Log func(format string, args ...any)
}

func (o *ScalingOptions) normalize() {
	if len(o.Sizes) == 0 {
		for n := 1 << 10; n <= 128<<10; n <<= 1 {
			o.Sizes = append(o.Sizes, n)
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// ScalePoint is one row of the size sweep: one audited core.Run at one
// worker count, its span times in seconds and its final quality.
type ScalePoint struct {
	Cells       int `json:"cells"`
	FFs         int `json:"ffs"`
	Nets        int `json:"nets"`
	Rings       int `json:"rings"`
	Parallelism int `json:"parallelism"`
	Iterations  int `json:"iterations"`

	RunS      float64 `json:"run_s"` // the core.Run span
	NSPerCell float64 `json:"ns_per_cell"`
	// StageS sums the direct children of the core.Run span by name
	// (stage1.place, stage2.maxslack, stage3.assign, flow.iter), so their
	// total never exceeds RunS.
	StageS  map[string]float64 `json:"stage_s"`
	AuditS  float64            `json:"audit_s"` // the core.Audit span
	Audited bool               `json:"audited"`
	// TreeS sums every span of the run's tree by name (SpanTotals), so a
	// stage run inside the stage 3-6 loop is timed by name and not only
	// as part of flow.iter.
	TreeS map[string]float64 `json:"tree_s"`
	// DetailedS is TreeS's stage1.detailed plus stage6.detailed: the swap
	// loop's share of RunS.
	DetailedS float64 `json:"detailed_s"`
	// Counters are the run's work counters (Result.Metrics.Counters).
	Counters map[string]int64 `json:"counters"`

	// Final quality, Float64bits-equal across the two parallelism rows of
	// one size.
	TotalWL    float64 `json:"total_wl_um"`
	TotalPower float64 `json:"total_power_mw"`
	MaxCap     float64 `json:"max_cap_ff"`
	WCP        float64 `json:"wcp_um_pf"`
}

// ScalingReport is the JSON document written to BENCH_scaling.json.
type ScalingReport struct {
	Schema     string       `json:"schema"`
	Seed       int64        `json:"seed"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Points     []ScalePoint `json:"points"`

	// ECO holds the edit-latency rows (RunECOBench): incremental
	// re-optimization vs a full re-run at the same size.
	ECO []ECOPoint `json:"eco,omitempty"`
}

// ringsFor picks the rotary array size for a sweep point: ring counts grow
// with sqrt(cells) like the paper's suite (16 rings at ~1.5k cells through
// 49 at ~17k), capped at a 16x16 array.
func ringsFor(cells int) int {
	side := int(math.Round(math.Sqrt(float64(cells) / 2000)))
	if side < 2 {
		side = 2
	}
	if side > 16 {
		side = 16
	}
	return side * side
}

// RunScaling executes the sweep and returns the report, two rows per size:
// Parallelism 1, then GOMAXPROCS. It returns an error, and no report, if any
// run fails, degrades or fails core.Audit, or if a size's final TotalWL,
// TotalPower or MaxCap differ in any bit between its two rows.
func RunScaling(opt ScalingOptions) (*ScalingReport, error) {
	opt.normalize()
	rep := &ScalingReport{
		Schema:     "rotaryclk-scaling/v2",
		Seed:       opt.Seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, n := range opt.Sizes {
		var rows [2]ScalePoint
		for i, par := range []int{1, rep.GoMaxProcs} {
			pt, err := runScalePoint(n, opt.Seed, par)
			if err != nil {
				return nil, fmt.Errorf("bench: scaling point %d cells, parallelism %d: %w", n, par, err)
			}
			rows[i] = pt
			if opt.Log != nil {
				opt.Log("%8d cells -j %d: core.Run %.2f s (%.0f ns/cell), detailed %.2f s, audit %.3f s",
					pt.Cells, par, pt.RunS, pt.NSPerCell, pt.DetailedS, pt.AuditS)
			}
		}
		if !sameQuality(rows[0], rows[1]) {
			return nil, fmt.Errorf("bench: scaling point %d cells: quality differs across worker counts: %+v vs %+v",
				n, rows[0], rows[1])
		}
		rep.Points = append(rep.Points, rows[:]...)
	}
	return rep, nil
}

// sameQuality reports whether two rows' final quality is bit-equal.
func sameQuality(a, b ScalePoint) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.TotalWL, b.TotalWL) && eq(a.TotalPower, b.TotalPower) && eq(a.MaxCap, b.MaxCap)
}

func runScalePoint(cells int, seed int64, par int) (ScalePoint, error) {
	c, err := netlist.Generate(netlist.GenSpec{
		Name:      fmt.Sprintf("scale%d", cells),
		Cells:     cells,
		FlipFlops: cells / 10,
		Seed:      seed + int64(cells),
	})
	if err != nil {
		return ScalePoint{}, err
	}
	reg := obs.NewRegistry()
	cfg := core.Config{NumRings: ringsFor(cells), Parallelism: par, Obs: reg}
	res, err := core.Run(c, cfg)
	if err != nil {
		return ScalePoint{}, err
	}
	if res.Degraded {
		return ScalePoint{}, fmt.Errorf("run degraded: %v", res.Events)
	}
	sp := reg.StartSpan("core.Audit")
	err = core.Audit(c, cfg, res)
	sp.End()
	if err != nil {
		return ScalePoint{}, err
	}

	var root *obs.SpanData
	for _, s := range res.Metrics.Spans {
		if s.Name == "core.Run" {
			root = s
		}
	}
	if root == nil {
		return ScalePoint{}, fmt.Errorf("no core.Run span in the run's metrics")
	}
	stages := make(map[string]float64, len(root.Children))
	for _, ch := range root.Children {
		stages[ch.Name] += ch.Ms / 1000
	}
	stats := c.Stats()
	tree := res.Metrics.SpanTotals()
	return ScalePoint{
		Cells: stats.Cells, FFs: stats.FlipFlops, Nets: stats.Nets,
		Rings: len(res.Array.Rings), Parallelism: par, Iterations: res.Iterations,
		RunS:       root.Ms / 1000,
		NSPerCell:  root.Ms * 1e6 / float64(stats.Cells),
		StageS:     stages,
		AuditS:     reg.Snapshot().SpanSeconds("core.Audit"),
		Audited:    true,
		TreeS:      tree,
		DetailedS:  tree["stage1.detailed"] + tree["stage6.detailed"],
		Counters:   res.Metrics.Counters,
		TotalWL:    res.Final.TotalWL,
		TotalPower: res.Final.TotalPower,
		MaxCap:     res.Final.MaxCap,
		WCP:        res.Final.WCP,
	}, nil
}

// WriteJSON writes the report with stable formatting.
func (r *ScalingReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
