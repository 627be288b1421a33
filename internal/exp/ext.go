package exp

import (
	"fmt"

	"rotaryclk/internal/bench"
	"rotaryclk/internal/clocktree"
	"rotaryclk/internal/core"
	"rotaryclk/internal/localtree"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/variation"
)

// RowVar is one row of the variability study backing the paper's motivation
// (Section I): skew deviation of rotary tapping versus a conventional
// buffered clock tree under the same process-variation model.
type RowVar struct {
	Name      string
	RotSigma  float64 // ps
	TreeSigma float64 // ps
	Ratio     float64 // TreeSigma / RotSigma
	RotMax    float64
	TreeMax   float64
}

// VariationStudy Monte-Carlo compares skew variability of the converged
// rotary assignment against a conventional clock tree over the same
// flip-flop placement (500 samples, 10% wire sigma, 8% buffer sigma).
func VariationStudy(runs []*CircuitRun) ([]RowVar, error) {
	var rows []RowVar
	for _, cr := range runs {
		if len(cr.FFPos) == 0 {
			return nil, fmt.Errorf("exp: run %s carries no flip-flop positions", cr.Bench.Name)
		}
		rot, err := variation.RotarySkew(cr.Flow.Array.Params, cr.Flow.Assign, cr.VarPairs, cr.Bench.Seed)
		if err != nil {
			return nil, err
		}
		root := clocktree.Build(cr.FFPos)
		tree, err := variation.TreeSkew(cr.Flow.Array.Params, root, len(cr.FFPos), cr.VarPairs, cr.Bench.Seed)
		if err != nil {
			return nil, err
		}
		row := RowVar{
			Name: cr.Bench.Name, RotSigma: rot.Sigma, TreeSigma: tree.Sigma,
			RotMax: rot.Max, TreeMax: tree.Max,
		}
		if rot.Sigma > 0 {
			row.Ratio = tree.Sigma / rot.Sigma
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RowTree is one row of the local-tree study (the first future-work item of
// Section IX): tapping wirelength with shared local trees versus individual
// stubs.
type RowTree struct {
	Name     string
	BaseWL   float64
	TreeWL   float64
	Saved    float64
	SavedPct float64
	Clusters int
}

// LocalTreeStudy builds shared local clock trees on every converged
// network-flow assignment.
func LocalTreeStudy(runs []*CircuitRun) ([]RowTree, error) {
	var rows []RowTree
	for _, cr := range runs {
		if len(cr.FFPos) == 0 {
			return nil, fmt.Errorf("exp: run %s carries no flip-flop positions", cr.Bench.Name)
		}
		res, err := localtree.Build(cr.Flow.Array, cr.Flow.Assign, cr.FFPos, cr.Flow.Schedule, localtree.Options{})
		if err != nil {
			return nil, err
		}
		row := RowTree{
			Name: cr.Bench.Name, BaseWL: res.BaseWL, TreeWL: res.TreeWL,
			Saved: res.Saved, Clusters: res.NumCluster,
		}
		if res.BaseWL > 0 {
			row.SavedPct = res.Saved / res.BaseWL
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RowRings is one point of the ring-count sweep (the second future-work item
// of Section IX).
type RowRings struct {
	Rings    int
	TapWL    float64
	SignalWL float64
	MaxCap   float64
	WCP      float64
	Best     bool
}

// RingSweep runs the flow for each candidate ring count on one circuit and
// marks the best count under the flow's overall cost.
func RingSweep(name string, scale float64, counts []int) ([]RowRings, error) {
	b, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	b = b.Scale(scale)
	gen := func() (*netlist.Circuit, error) { return b.Generate() }
	best, points, err := core.AutoRings(gen, core.Config{}, counts)
	if err != nil {
		return nil, err
	}
	var rows []RowRings
	for _, p := range points {
		rows = append(rows, RowRings{
			Rings:    p.Rings,
			TapWL:    p.Final.TapWL,
			SignalWL: p.Final.SignalWL,
			MaxCap:   p.Final.MaxCap,
			WCP:      p.Final.WCP,
			Best:     p.Rings == best,
		})
	}
	return rows, nil
}
