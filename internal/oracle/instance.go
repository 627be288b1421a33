package oracle

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/rotary"
	"rotaryclk/internal/skew"
)

// RingSpec is a JSON-serializable rotary ring. Ring IDs are positional: the
// i-th spec becomes ring i of the rebuilt array.
type RingSpec struct {
	Center geom.Point
	Side   float64
	Dir    int     // +1 counterclockwise, -1 clockwise
	T0     float64 // delay at the travel-start corner, ps
}

func (rs RingSpec) ring(id int) *rotary.Ring {
	return &rotary.Ring{ID: id, Center: rs.Center, Side: rs.Side, Dir: rs.Dir, T0: rs.T0}
}

// FFSpec is one flip-flop of an assignment instance: its placed location
// and skew-schedule delay target.
type FFSpec struct {
	Pos    geom.Point
	Target float64
}

// AssignInstance is a self-contained FF→ring assignment instance, the input
// of the brute-force and metamorphic assignment oracles.
type AssignInstance struct {
	Params   rotary.Params
	Rings    []RingSpec
	FFs      []FFSpec
	K        int   // candidate rings per FF (assign.Problem.K)
	Capacity []int `json:",omitempty"` // per-ring limit; empty = assign's default
}

// Array rebuilds the rotary array the instance describes.
func (in *AssignInstance) Array() *rotary.Array {
	a := &rotary.Array{Params: in.Params, NX: len(in.Rings), NY: 1}
	for i, rs := range in.Rings {
		a.Rings = append(a.Rings, rs.ring(i))
	}
	return a
}

// Problem builds the production assign.Problem for the instance. Serial
// (Parallelism 1): oracle comparisons want the minimal execution.
func (in *AssignInstance) Problem() *assign.Problem {
	ffs := make([]assign.FF, len(in.FFs))
	for i, f := range in.FFs {
		ffs[i] = assign.FF{Cell: i, Pos: f.Pos, Target: f.Target}
	}
	var capacity []int
	if len(in.Capacity) > 0 {
		capacity = append([]int(nil), in.Capacity...)
	}
	return &assign.Problem{
		Array:       in.Array(),
		FFs:         ffs,
		K:           in.K,
		Capacity:    capacity,
		Parallelism: 1,
	}
}

// capacities returns the effective per-ring limits, replicating assign's
// uniform default of ceil(1.25*nFF/nRings) when none are given.
func (in *AssignInstance) capacities() []int {
	if len(in.Capacity) > 0 {
		return in.Capacity
	}
	u := (len(in.FFs)*5/4)/len(in.Rings) + 1
	caps := make([]int, len(in.Rings))
	for j := range caps {
		caps[j] = u
	}
	return caps
}

func (in *AssignInstance) clone() *AssignInstance {
	out := &AssignInstance{Params: in.Params, K: in.K}
	out.Rings = append([]RingSpec(nil), in.Rings...)
	out.FFs = append([]FFSpec(nil), in.FFs...)
	if len(in.Capacity) > 0 {
		out.Capacity = append([]int(nil), in.Capacity...)
	}
	return out
}

// TapInstance is one flexible-tapping query: a single ring, one flip-flop
// location, and a delay target.
type TapInstance struct {
	Params rotary.Params
	Ring   RingSpec
	FF     geom.Point
	Target float64
}

// SkewInstance is one skew instance over N flip-flops. Without anchors it
// is a max-slack instance; with one anchor per flip-flop it is a
// cost-driven min-Delta instance over the Fishburn system at slack Slack.
type SkewInstance struct {
	N       int
	Pairs   []skew.SeqPair
	T       float64 // clock period, ps
	Setup   float64
	Hold    float64
	Slack   float64       `json:",omitempty"`
	Anchors []skew.Anchor `json:",omitempty"`
}

func (in *SkewInstance) clone() *SkewInstance {
	out := &SkewInstance{N: in.N, T: in.T, Setup: in.Setup, Hold: in.Hold, Slack: in.Slack}
	out.Pairs = append([]skew.SeqPair(nil), in.Pairs...)
	if len(in.Anchors) > 0 {
		out.Anchors = append([]skew.Anchor(nil), in.Anchors...)
	}
	return out
}

// PlaceCell is one cell of a quadratic-placement instance.
type PlaceCell struct {
	Pos   geom.Point
	Fixed bool
}

// PseudoSpec is one pseudo-net anchor of a placement instance.
type PseudoSpec struct {
	Cell   int
	Target geom.Point
	Weight float64
}

// PlaceInstance is a tiny quadratic-placement instance: cells, multi-pin
// nets (cell indices; a cell drives at most one net), and an optional
// pseudo-net overlay.
type PlaceInstance struct {
	Die    geom.Rect
	Cells  []PlaceCell
	Nets   [][]int
	Pseudo []PseudoSpec `json:",omitempty"`
}

// Circuit materializes the instance as a netlist: every cell a gate sized
// 4x8 um, positions clamped into the die.
func (in *PlaceInstance) Circuit() (*netlist.Circuit, error) {
	c := netlist.New("oracle-place")
	c.Die = in.Die
	for i, pc := range in.Cells {
		c.AddCell(&netlist.Cell{
			Name: fmt.Sprintf("c%d", i),
			Kind: netlist.Gate,
			W:    4, H: 8,
			Pos:   in.Die.Clamp(pc.Pos),
			Fixed: pc.Fixed,
		})
	}
	for ni, pins := range in.Nets {
		if len(pins) < 2 {
			return nil, fmt.Errorf("oracle: net %d has %d pins", ni, len(pins))
		}
		for _, id := range pins {
			if id < 0 || id >= len(in.Cells) {
				return nil, fmt.Errorf("oracle: net %d references cell %d of %d", ni, id, len(in.Cells))
			}
		}
		c.AddNet(fmt.Sprintf("n%d", ni), pins...)
	}
	return c, nil
}

func (in *PlaceInstance) clone() *PlaceInstance {
	out := &PlaceInstance{Die: in.Die}
	out.Cells = append([]PlaceCell(nil), in.Cells...)
	for _, pins := range in.Nets {
		out.Nets = append(out.Nets, append([]int(nil), pins...))
	}
	if len(in.Pseudo) > 0 {
		out.Pseudo = append([]PseudoSpec(nil), in.Pseudo...)
	}
	return out
}

// Repro is the on-disk record of one shrunk failing instance: the violation
// plus exactly one instance payload.
type Repro struct {
	Oracle string
	Seed   int64
	Detail string

	Assign *AssignInstance `json:",omitempty"`
	Tap    *TapInstance    `json:",omitempty"`
	Skew   *SkewInstance   `json:",omitempty"`
	Place  *PlaceInstance  `json:",omitempty"`
	Flow   *FlowSpec       `json:",omitempty"`
	ECO    *ECOSpec        `json:",omitempty"`
}

// WriteRepro writes the repro as indented JSON under dir, creating the
// directory if needed, and returns the file path. The name encodes the
// oracle and seed, so re-runs of the same failure overwrite in place
// instead of accumulating.
func WriteRepro(dir string, r *Repro) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("oracle: repro dir: %w", err)
	}
	name := fmt.Sprintf("%s-seed%d.json", strings.ReplaceAll(r.Oracle, "/", "-"), r.Seed)
	path := filepath.Join(dir, name)
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("oracle: encode repro: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("oracle: write repro: %w", err)
	}
	return path, nil
}
