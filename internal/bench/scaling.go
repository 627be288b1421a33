// Scaling harness: the size-sweep benchmark behind `make scaling` and
// cmd/rotaryscale. Each sweep point generates a synthetic circuit of the
// requested cell count, builds the placer's quadratic system, runs global
// placement, and solves the min-max-capacitance assignment LP on the placed
// flip-flops — the full solver core at geometric sizes — recording wall time
// and allocations per stage, normalized per cell. The output feeds
// BENCH_scaling.json (rendered read-only by `scripts/ci.sh benchcmp`).
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/placer"
	"rotaryclk/internal/rotary"
)

// ScalingOptions configures a size sweep.
type ScalingOptions struct {
	// Sizes are the circuit cell counts to sweep (default geometric
	// 1k..512k, doubling).
	Sizes []int
	// Seed feeds every generated circuit (the per-point spec also folds the
	// size in, so points differ structurally).
	Seed int64
	// SpreadIters bounds the global placer's spreading rounds. The sweep
	// default is 8 — enough to exercise the solver scaling honestly while
	// keeping the 512k point tractable; production placement uses 24.
	SpreadIters int
	// Parallelism bounds workers in the placer and candidate builder
	// (0 = GOMAXPROCS).
	Parallelism int
	// Log, when non-nil, receives one progress line per completed point.
	Log func(format string, args ...any)
}

func (o *ScalingOptions) normalize() {
	if len(o.Sizes) == 0 {
		for n := 1 << 10; n <= 512<<10; n <<= 1 {
			o.Sizes = append(o.Sizes, n)
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SpreadIters <= 0 {
		o.SpreadIters = 8
	}
}

// ScalePoint is one row of the size sweep: per-stage wall time plus
// whole-point allocation counts, normalized per cell.
type ScalePoint struct {
	Cells int `json:"cells"`
	FFs   int `json:"ffs"`
	Nets  int `json:"nets"`
	Rings int `json:"rings"`

	GenNS    int64 `json:"gen_ns"`
	SystemNS int64 `json:"system_ns"`
	PlaceNS  int64 `json:"place_ns"`
	AssignNS int64 `json:"assign_ns"`
	TotalNS  int64 `json:"total_ns"`

	NSPerCell     float64 `json:"ns_per_cell"`
	Allocs        uint64  `json:"allocs"`
	AllocsPerCell float64 `json:"allocs_per_cell"`

	LPZ      float64 `json:"lp_z"`       // assignment LP optimum (fF)
	LPPivots int     `json:"lp_pivots"`  // GUB simplex pivot count
	MaxCap   float64 `json:"max_cap_ff"` // rounded assignment max ring load

	// Quality metrics, measured outside the timed stages: signal wirelength
	// after legalization (um) and its wirelength-capacitance product
	// SignalWL*MaxCap/1000 (um*pF, the sweep's Table VII analog). They make
	// rows comparable on result quality, not just speed.
	SignalWL float64 `json:"signal_wl"`
	WCP      float64 `json:"wcp"`
}

// ScalingReport is the JSON document written to BENCH_scaling.json.
type ScalingReport struct {
	Schema      string       `json:"schema"`
	Seed        int64        `json:"seed"`
	SpreadIters int          `json:"spread_iters"`
	GoMaxProcs  int          `json:"gomaxprocs"`
	Points      []ScalePoint `json:"points"`

	// ECO holds the edit-latency benchmark rows (cmd/rotaryscale -eco),
	// recorded alongside the sweep: incremental re-optimization vs a full
	// re-run at the same size.
	ECO []ECOPoint `json:"eco,omitempty"`
}

// SetECOPoint merges one edit-latency row into the report, replacing any
// prior row at the same cell count so re-runs update in place.
func (r *ScalingReport) SetECOPoint(pt ECOPoint) {
	for i := range r.ECO {
		if r.ECO[i].Cells == pt.Cells {
			r.ECO[i] = pt
			return
		}
	}
	r.ECO = append(r.ECO, pt)
}

// ringsFor picks the rotary array size for a sweep point: ring counts grow
// with sqrt(cells) like the paper's suite (16 rings at ~1.5k cells through
// 49 at ~17k), landing on a 16x16 array at the 512k top size.
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

// RunScaling executes the sweep and returns the report. Every point runs
// generate -> placer.NewSystem -> Global -> assign.MinMaxCap on the sparse
// LP path, with flat skew targets (the LP's cost structure depends on
// geometry, not the target values, so flat targets keep the benchmark about
// solver scaling).
func RunScaling(opt ScalingOptions) (*ScalingReport, error) {
	opt.normalize()
	rep := &ScalingReport{
		Schema:      "rotaryclk-scaling/v1",
		Seed:        opt.Seed,
		SpreadIters: opt.SpreadIters,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}
	for _, n := range opt.Sizes {
		pt, err := runScalePoint(n, &opt)
		if err != nil {
			return nil, fmt.Errorf("bench: scaling point %d cells: %w", n, err)
		}
		rep.Points = append(rep.Points, pt)
		if opt.Log != nil {
			opt.Log("%8d cells: %7.0f ns/cell, %5.1f allocs/cell, total %s",
				pt.Cells, pt.NSPerCell, pt.AllocsPerCell,
				time.Duration(pt.TotalNS).Round(time.Millisecond))
		}
	}
	return rep, nil
}

func runScalePoint(cells int, opt *ScalingOptions) (ScalePoint, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs0 := ms.Mallocs

	t0 := time.Now()
	c, err := netlist.Generate(netlist.GenSpec{
		Name:      fmt.Sprintf("scale%d", cells),
		Cells:     cells,
		FlipFlops: cells / 10,
		Seed:      opt.Seed + int64(cells),
	})
	if err != nil {
		return ScalePoint{}, err
	}
	genNS := time.Since(t0).Nanoseconds()

	t0 = time.Now()
	sys, err := placer.NewSystem(c, nil)
	if err != nil {
		return ScalePoint{}, err
	}
	sysNS := time.Since(t0).Nanoseconds()

	t0 = time.Now()
	err = sys.Global(placer.Options{
		SpreadIters: opt.SpreadIters,
		Parallelism: opt.Parallelism,
	})
	if err != nil {
		return ScalePoint{}, err
	}
	placeNS := time.Since(t0).Nanoseconds()

	t0 = time.Now()
	nRings := ringsFor(cells)
	arr, err := rotary.SquareArray(c.Die, nRings, 0.6, rotary.DefaultParams())
	if err != nil {
		return ScalePoint{}, err
	}
	var ffs []assign.FF
	for _, cell := range c.Cells {
		if cell.Kind == netlist.FF {
			ffs = append(ffs, assign.FF{Cell: cell.ID, Pos: cell.Pos})
		}
	}
	prob := &assign.Problem{Array: arr, FFs: ffs, Parallelism: opt.Parallelism}
	a, rel, err := assign.MinMaxCap(prob)
	if err != nil {
		return ScalePoint{}, err
	}
	assignNS := time.Since(t0).Nanoseconds()

	runtime.ReadMemStats(&ms)

	// Quality measurement, outside the timed stages (the assignment above
	// already consumed the un-legalized FF positions, matching the flow's
	// stage order).
	if err := placer.Legalize(c); err != nil {
		return ScalePoint{}, err
	}
	signalWL := c.SignalWL()

	stats := c.Stats()
	total := genNS + sysNS + placeNS + assignNS
	return ScalePoint{
		Cells: stats.Cells, FFs: stats.FlipFlops, Nets: stats.Nets,
		Rings: len(arr.Rings),
		GenNS: genNS, SystemNS: sysNS, PlaceNS: placeNS, AssignNS: assignNS,
		TotalNS:       total,
		NSPerCell:     float64(total) / float64(stats.Cells),
		Allocs:        ms.Mallocs - allocs0,
		AllocsPerCell: float64(ms.Mallocs-allocs0) / float64(stats.Cells),
		LPZ:           rel.LPOpt,
		LPPivots:      rel.LPIters,
		MaxCap:        a.MaxCap,
		SignalWL:      signalWL,
		WCP:           signalWL * a.MaxCap / 1000,
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
