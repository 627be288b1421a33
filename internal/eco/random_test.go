package eco

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/timing"
)

// replayDeltas applies a drawn sequence to a fresh clone with its own
// structural bookkeeping, fataling on any delta that is not legal given its
// predecessors — the generator's validity contract, checked from the outside
// rather than by the applyDelta it draws through.
func replayDeltas(t *testing.T, c *netlist.Circuit, numRings int, ds []Delta) *netlist.Circuit {
	t.Helper()
	sim := c.Clone()
	for i, d := range ds {
		switch d.Op {
		case OpMoveFF:
			if sim.Cells[d.Cell].Kind != netlist.FF {
				t.Fatalf("delta %d %s: cell is not a flip-flop", i, d)
			}
			if !sim.Die.Contains(geom.Pt(d.X, d.Y)) {
				t.Fatalf("delta %d %s: target outside the die", i, d)
			}
			sim.Cells[d.Cell].Pos = geom.Pt(d.X, d.Y)
		case OpAddFF:
			cl := sim.Cells[d.Cell]
			if cl.Kind != netlist.Gate || len(cl.Fanin) != 1 {
				t.Fatalf("delta %d %s: not a single-fanin gate", i, d)
			}
			cl.Kind = netlist.FF
		case OpRemoveFF:
			if sim.Cells[d.Cell].Kind != netlist.FF {
				t.Fatalf("delta %d %s: cell is not a flip-flop", i, d)
			}
			if len(sim.FlipFlops()) <= 1 {
				t.Fatalf("delta %d %s: would remove the last flip-flop", i, d)
			}
			sim.Cells[d.Cell].Kind = netlist.Gate
		case OpRetargetRing:
			if sim.Cells[d.Cell].Kind != netlist.FF {
				t.Fatalf("delta %d %s: cell is not a flip-flop", i, d)
			}
			if d.Ring < 0 || d.Ring >= numRings {
				t.Fatalf("delta %d %s: ring out of range", i, d)
			}
		case OpEditNet:
			net := sim.Nets[d.Net]
			cl := sim.Cells[d.Cell]
			if d.Add {
				if cl.Kind != netlist.Gate {
					t.Fatalf("delta %d %s: added sink is not a gate", i, d)
				}
				for _, p := range net.Pins {
					if p == d.Cell {
						t.Fatalf("delta %d %s: cell already on the net", i, d)
					}
				}
				net.Pins = append(net.Pins, d.Cell)
				cl.Fanin = append(cl.Fanin, d.Net)
			} else {
				if len(net.Pins) <= 2 || cl.Kind != netlist.Gate || len(cl.Fanin) < 2 {
					t.Fatalf("delta %d %s: removal would leave a degenerate net or gate", i, d)
				}
				removed := false
				for k := 1; k < len(net.Pins); k++ {
					if net.Pins[k] == d.Cell {
						net.Pins = append(net.Pins[:k], net.Pins[k+1:]...)
						removed = true
						break
					}
				}
				if !removed {
					t.Fatalf("delta %d %s: cell is not a sink of the net", i, d)
				}
				for k, f := range cl.Fanin {
					if f == d.Net {
						cl.Fanin = append(cl.Fanin[:k], cl.Fanin[k+1:]...)
						break
					}
				}
			}
		default:
			t.Fatalf("delta %d: unknown op %q", i, d.Op)
		}
	}
	return sim
}

// TestRandomDeltasValidAndDeterministic: the drawn sequence replays cleanly
// against a fresh clone (every delta legal given its predecessors) and is a
// pure function of the seed.
func TestRandomDeltasValidAndDeterministic(t *testing.T) {
	c, err := netlist.Generate(netlist.GenSpec{Name: "rnd", Cells: 150, FlipFlops: 25, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ds := RandomDeltas(rand.New(rand.NewSource(42)), c, 9, 40)
	if len(ds) != 40 {
		t.Fatalf("drew %d deltas, want 40", len(ds))
	}
	replayDeltas(t, c, 9, ds)
	ds2 := RandomDeltas(rand.New(rand.NewSource(42)), c, 9, 40)
	if !reflect.DeepEqual(ds, ds2) {
		t.Error("same seed drew a different sequence")
	}
}

// TestRandomDeltasKeepCircuitAnalyzable: the reachability guard must keep
// every drawn sequence free of combinational cycles — the replayed netlist
// still passes timing analysis after many net edits and FF demotions.
func TestRandomDeltasKeepCircuitAnalyzable(t *testing.T) {
	c, err := netlist.Generate(netlist.GenSpec{Name: "rnd-cyc", Cells: 200, FlipFlops: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 8; seed++ {
		ds := RandomDeltas(rand.New(rand.NewSource(seed)), c, 9, 60)
		sim := replayDeltas(t, c, 9, ds)
		if _, err := timing.Analyze(sim, timing.DefaultModel()); err != nil {
			t.Errorf("seed %d: edited circuit no longer analyzable: %v", seed, err)
		}
	}
}

// TestCombReaches pins the traversal the guard relies on: combinational
// fanout is followed, flip-flops block, and a from==to probe detects the
// loop a demotion would expose.
func TestCombReaches(t *testing.T) {
	c := netlist.New("reach")
	c.Die = geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(100, 100)}
	mk := func(kind netlist.Kind, fn netlist.Func) int {
		return c.AddCell(&netlist.Cell{Name: "c", Kind: kind, Fn: fn, W: 1, H: 1}).ID
	}
	a := mk(netlist.Gate, netlist.FuncBuf)
	b := mk(netlist.Gate, netlist.FuncBuf)
	f := mk(netlist.FF, netlist.FuncDFF)
	d := mk(netlist.Gate, netlist.FuncBuf)
	c.AddNet("a-b", a, b) // a -> b
	c.AddNet("b-f", b, f) // b -> f (FF)
	c.AddNet("f-d", f, d) // f -> d
	c.AddNet("d-a", d, a) // d -> a: a loop, broken only by f

	if !combReaches(c, a, b) {
		t.Error("a should reach its direct sink b")
	}
	if combReaches(c, a, d) {
		t.Error("a must not reach d: the only path crosses flip-flop f")
	}
	if !combReaches(c, f, f) {
		t.Error("demotion probe: f sits on a loop that is combinational without it")
	}
	if combReaches(c, b, b) {
		t.Error("b does not drive a path back to itself that avoids f")
	}
}

// fingerprintSpecs are the circuits the RandomDeltas fingerprint draws
// against: the eco benchmark's base design (16 rings), two smaller and larger
// designs of the same FF density, and an FF-heavy design where the
// flip-flop-count guards bind.
var fingerprintSpecs = []netlist.GenSpec{
	{Name: "eco-base", Cells: 3000, FlipFlops: 300, Seed: 1},
	{Name: "fp-1500", Cells: 1500, FlipFlops: 150, Seed: 2},
	{Name: "fp-20000", Cells: 20000, FlipFlops: 2000, Seed: 3},
	{Name: "fp-ffheavy", Cells: 200, FlipFlops: 199, Seed: 4},
}

// deltaDigest is a SHA-256 over every field of ds, floats by their bits.
func deltaDigest(ds []Delta) string {
	h := sha256.New()
	for _, d := range ds {
		fmt.Fprintf(h, "%s %d %x %x %d %d %t\n", d.Op, d.Cell,
			math.Float64bits(d.X), math.Float64bits(d.Y), d.Ring, d.Net, d.Add)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRandomDeltasFingerprint pins the exact sequences RandomDeltas draws:
// every ECO test, oracle run, CI smoke and eco benchmark edit replays them,
// so a change to the generator's internals must leave each digest as
// recorded.
func TestRandomDeltasFingerprint(t *testing.T) {
	want := map[string]string{
		"eco-base/n=1":    "ece2bf4a48cebf21c3cbadd203b0593e74eb34879639b93ac533b4b272cf77ac",
		"eco-base/n=8":    "e7ec4f2522d546f7908a0ea7545f9e529ef22fc5986d76c0ad6b9714d10c8074",
		"eco-base/n=64":   "b03140f2d3434a98aa6917e303d3206bf352f2df6b33737d391c973786d0e0f5",
		"fp-1500/n=1":     "f173cbd899313092444630d0d62f0cd24717a359d802fd25e3bbfb7aaf3f8c9b",
		"fp-1500/n=8":     "c40f205c3094b4eb51b599b10003e2252fad123a5105fdec87afb4bd1d940ee6",
		"fp-1500/n=64":    "8be0abf1c5777c6bee1e0de18424d4ec4c73d0855485a82fc52350c560796c8a",
		"fp-20000/n=1":    "607cc0be85753146f2fb9f25f79842b13ab17fe63743eeedc77ee5e41a405579",
		"fp-20000/n=8":    "46991f9a275a7c26d09a49a8be59f5119685d87a30c958d2a90e0b39cbb02712",
		"fp-20000/n=64":   "c7c4ab6a2a30cd3c56661249410b1ba5f1223605c9c9b5b1cdbcf4180b7c3602",
		"fp-ffheavy/n=1":  "152f3bb215e2d78f1c6b999d4668755befbb0aa1b0329df14658ee84410f1796",
		"fp-ffheavy/n=8":  "8998b03ea48c1a512e58d87b18dd6e54d5f1b8a1b817a1bad11560b2685ac428",
		"fp-ffheavy/n=64": "8446d17b1fac5bc2de7229f0daaa90243cf773f709ef74eaa0df5b9b7658cd7d",
	}
	for k, spec := range fingerprintSpecs {
		c, err := netlist.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 8, 64} {
			key := fmt.Sprintf("%s/n=%d", spec.Name, n)
			ds := RandomDeltas(rand.New(rand.NewSource(int64(100*k+n))), c, 16, n)
			if got := deltaDigest(ds); got != want[key] {
				t.Errorf("%s: %d deltas, digest %s, want %s", key, len(ds), got, want[key])
			}
		}
	}
}

// circuitSnapshot is every field of c a delta can edit.
type circuitSnapshot struct {
	Pos    []geom.Point
	Kind   []netlist.Kind
	Fn     []netlist.Func
	Fanin  [][]int
	Fanout []int
	Pins   [][]int
}

func snapshot(c *netlist.Circuit) circuitSnapshot {
	var s circuitSnapshot
	for _, cell := range c.Cells {
		s.Pos = append(s.Pos, cell.Pos)
		s.Kind = append(s.Kind, cell.Kind)
		s.Fn = append(s.Fn, cell.Fn)
		s.Fanin = append(s.Fanin, append([]int(nil), cell.Fanin...))
		s.Fanout = append(s.Fanout, cell.Fanout)
	}
	for _, net := range c.Nets {
		s.Pins = append(s.Pins, append([]int(nil), net.Pins...))
	}
	return s
}

// panicSource is a rand.Source that panics on its limit-th draw.
type panicSource struct {
	rand.Source
	calls, limit int
}

func (p *panicSource) Int63() int64 {
	if p.calls++; p.calls == p.limit {
		panic("draw limit")
	}
	return p.Source.Int63()
}

// TestRandomDeltasRestoresCircuit: the caller's circuit comes back exactly as
// it was after a draw, including one that a panic cuts short.
func TestRandomDeltasRestoresCircuit(t *testing.T) {
	for _, spec := range []netlist.GenSpec{
		{Name: "rst", Cells: 200, FlipFlops: 30, Seed: 3},
		fingerprintSpecs[1], fingerprintSpecs[3],
	} {
		c, err := netlist.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := snapshot(c)
		for seed := int64(0); seed < 6; seed++ {
			for _, n := range []int{1, 40, 200} {
				RandomDeltas(rand.New(rand.NewSource(seed)), c, 9, n)
				if !reflect.DeepEqual(snapshot(c), want) {
					t.Fatalf("%s seed %d n %d: circuit changed by the draw", spec.Name, seed, n)
				}
			}
			for _, limit := range []int{2, 25, 150} {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s seed %d: draw limit %d not reached", spec.Name, seed, limit)
						}
					}()
					RandomDeltas(rand.New(&panicSource{Source: rand.NewSource(seed), limit: limit}), c, 9, 200)
				}()
				if !reflect.DeepEqual(snapshot(c), want) {
					t.Fatalf("%s seed %d: circuit changed by a draw cut at call %d", spec.Name, seed, limit)
				}
			}
		}
	}
}

// drawSink keeps BenchmarkRandomDeltas' result live.
var drawSink []Delta

// BenchmarkRandomDeltas times one single-delta draw, the per-edit cost every
// ECO driver pays, on the eco benchmark's base design and a 20k-cell design.
func BenchmarkRandomDeltas(b *testing.B) {
	for _, spec := range []netlist.GenSpec{fingerprintSpecs[0], fingerprintSpecs[2]} {
		b.Run(fmt.Sprintf("cells=%d", spec.Cells), func(b *testing.B) {
			c, err := netlist.Generate(spec)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drawSink = RandomDeltas(rng, c, 16, 1)
			}
		})
	}
}
