package timing

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
)

// chain builds ff0 -> g0 -> g1 -> ff1 with all cells at given positions.
func chain(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("chain")
	c.Die = geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))
	f0 := c.AddCell(&netlist.Cell{Name: "ff0", Kind: netlist.FF, Fn: netlist.FuncDFF})
	g0 := c.AddCell(&netlist.Cell{Name: "g0", Kind: netlist.Gate, Fn: netlist.FuncNand})
	g1 := c.AddCell(&netlist.Cell{Name: "g1", Kind: netlist.Gate, Fn: netlist.FuncNot})
	f1 := c.AddCell(&netlist.Cell{Name: "ff1", Kind: netlist.FF, Fn: netlist.FuncDFF})
	c.AddNet("n0", f0.ID, g0.ID)
	c.AddNet("n1", g0.ID, g1.ID)
	c.AddNet("n2", g1.ID, f1.ID)
	// ff1 needs exactly one fanin (it has n2); ff0's D is left dangling on
	// purpose -- no, Validate requires one fanin. Feed ff0 from g1 too? That
	// would create a second pair. Give ff0 its own driver net from g1.
	c.AddNet("n3", f1.ID, g0.ID) // ff1.Q loops back into g0 (second input)
	// ff0 fanin: drive it from g1 as well.
	c.Nets[2].Pins = append(c.Nets[2].Pins, f0.ID)
	f0.Fanin = append(f0.Fanin, 2)
	for _, cell := range c.Cells {
		cell.Pos = geom.Pt(0, 0)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAnalyzeChain(t *testing.T) {
	c := chain(t)
	m := DefaultModel()
	res, err := Analyze(c, m)
	if err != nil {
		t.Fatal(err)
	}
	// Pairs: ff0 -> ff1 (via g0,g1), ff0 -> ff0 (via g0,g1), ff1 -> ff1
	// (via g0,g1), ff1 -> ff0 (via g0, g1).
	if len(res.Pairs) != 4 {
		t.Fatalf("pairs = %+v", res.Pairs)
	}
	// With all cells co-located, wire RC is zero; check ff0->ff1 delay by
	// hand: DFF intrinsic + drive*C + NAND intrinsic + drive*C + ...
	var p01 *Pair
	for i := range res.Pairs {
		if res.Pairs[i].From == 0 && res.Pairs[i].To == 3 {
			p01 = &res.Pairs[i]
		}
	}
	if p01 == nil {
		t.Fatal("missing pair ff0->ff1")
	}
	// Net n0 load: 1 pin => C = CPin. n1 load: g1 => CPin. n2 load: ff1+ff0 => 2 CPin.
	want := (m.Intrinsic[netlist.FuncDFF] + m.DriveRes*m.CPin) +
		(m.Intrinsic[netlist.FuncNand] + m.DriveRes*m.CPin) +
		(m.Intrinsic[netlist.FuncNot] + m.DriveRes*2*m.CPin)
	if math.Abs(p01.DMax-want) > 1e-9 || math.Abs(p01.DMin-want) > 1e-9 {
		t.Errorf("ff0->ff1 delay = %v/%v, want %v", p01.DMax, p01.DMin, want)
	}
	if res.MaxComb < want {
		t.Errorf("MaxComb = %v < %v", res.MaxComb, want)
	}
}

func TestWireDelayGrowsWithDistance(t *testing.T) {
	c := chain(t)
	m := DefaultModel()
	base, err := Analyze(c, m)
	if err != nil {
		t.Fatal(err)
	}
	// Move g1 far away: the ff0->ff1 path gets slower.
	c.Cells[2].Pos = geom.Pt(900, 900)
	far, err := Analyze(c, m)
	if err != nil {
		t.Fatal(err)
	}
	d0 := pairDelay(base, 0, 3)
	d1 := pairDelay(far, 0, 3)
	if d1 <= d0 {
		t.Errorf("delay did not grow with distance: %v vs %v", d0, d1)
	}
}

func pairDelay(r *Result, from, to int) float64 {
	for _, p := range r.Pairs {
		if p.From == from && p.To == to {
			return p.DMax
		}
	}
	return math.NaN()
}

func TestAnalyzeDivergingPaths(t *testing.T) {
	// ff0 fans out to a fast path (1 gate) and a slow path (3 gates), both
	// converging on ff1: DMax > DMin.
	c := netlist.New("diamond")
	f0 := c.AddCell(&netlist.Cell{Name: "ff0", Kind: netlist.FF, Fn: netlist.FuncDFF})
	a := c.AddCell(&netlist.Cell{Name: "a", Kind: netlist.Gate, Fn: netlist.FuncBuf})
	b1 := c.AddCell(&netlist.Cell{Name: "b1", Kind: netlist.Gate, Fn: netlist.FuncXor})
	b2 := c.AddCell(&netlist.Cell{Name: "b2", Kind: netlist.Gate, Fn: netlist.FuncXor})
	f1 := c.AddCell(&netlist.Cell{Name: "ff1", Kind: netlist.FF, Fn: netlist.FuncDFF})
	c.AddNet("q", f0.ID, a.ID, b1.ID)
	c.AddNet("na", a.ID, f1.ID)
	c.AddNet("nb1", b1.ID, b2.ID)
	c.AddNet("nb2", b2.ID, f1.ID)
	// f1 has two fanins (na, nb2): relax the FF single-fanin rule by
	// merging; instead drive f1's D from one net and treat 'na' as feeding
	// b2 as well. Simpler: give f1 one fanin (nb2) and a as another sink of nb1.
	// Rebuild cleanly:
	c = netlist.New("diamond2")
	f0 = c.AddCell(&netlist.Cell{Name: "ff0", Kind: netlist.FF, Fn: netlist.FuncDFF})
	a = c.AddCell(&netlist.Cell{Name: "a", Kind: netlist.Gate, Fn: netlist.FuncBuf})
	b1 = c.AddCell(&netlist.Cell{Name: "b1", Kind: netlist.Gate, Fn: netlist.FuncXor})
	mrg := c.AddCell(&netlist.Cell{Name: "m", Kind: netlist.Gate, Fn: netlist.FuncAnd})
	f1 = c.AddCell(&netlist.Cell{Name: "ff1", Kind: netlist.FF, Fn: netlist.FuncDFF})
	c.AddNet("q", f0.ID, a.ID, b1.ID)
	c.AddNet("na", a.ID, mrg.ID)
	c.AddNet("nb", b1.ID, mrg.ID)
	c.AddNet("nm", mrg.ID, f1.ID)
	c.AddNet("qq", f1.ID, a.ID) // keep f1 driving something; also gives f0 a fanin? no
	// f0 needs one fanin: reuse nm.
	c.Nets[3].Pins = append(c.Nets[3].Pins, f0.ID)
	f0.Fanin = append(f0.Fanin, 3)
	for _, cell := range c.Cells {
		cell.Pos = geom.Pt(0, 0)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(c, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	p := pairDelayPair(res, f0.ID, f1.ID)
	if p == nil {
		t.Fatal("missing pair")
	}
	if p.DMax <= p.DMin {
		t.Errorf("DMax %v should exceed DMin %v for reconvergent paths", p.DMax, p.DMin)
	}
}

func pairDelayPair(r *Result, from, to int) *Pair {
	for i := range r.Pairs {
		if r.Pairs[i].From == from && r.Pairs[i].To == to {
			return &r.Pairs[i]
		}
	}
	return nil
}

func TestAnalyzeSelfLoop(t *testing.T) {
	// ff0 -> g0 -> ff0: a self pair with From == To.
	c := netlist.New("self")
	f0 := c.AddCell(&netlist.Cell{Name: "ff0", Kind: netlist.FF, Fn: netlist.FuncDFF})
	g0 := c.AddCell(&netlist.Cell{Name: "g0", Kind: netlist.Gate, Fn: netlist.FuncNot})
	c.AddNet("q", f0.ID, g0.ID)
	c.AddNet("d", g0.ID, f0.ID)
	for _, cell := range c.Cells {
		cell.Pos = geom.Pt(0, 0)
	}
	res, err := Analyze(c, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 || res.Pairs[0].From != f0.ID || res.Pairs[0].To != f0.ID {
		t.Fatalf("pairs = %+v", res.Pairs)
	}
	if res.Pairs[0].DMax <= 0 {
		t.Errorf("self-loop delay = %v", res.Pairs[0].DMax)
	}
}

func TestAnalyzeCombinationalCycle(t *testing.T) {
	c := netlist.New("cycle")
	g0 := c.AddCell(&netlist.Cell{Name: "g0", Kind: netlist.Gate, Fn: netlist.FuncNot})
	g1 := c.AddCell(&netlist.Cell{Name: "g1", Kind: netlist.Gate, Fn: netlist.FuncNot})
	c.AddNet("a", g0.ID, g1.ID)
	c.AddNet("b", g1.ID, g0.ID)
	if _, err := Analyze(c, DefaultModel()); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestAnalyzeGeneratedCircuit(t *testing.T) {
	c, err := netlist.Generate(netlist.GenSpec{Name: "g", Cells: 800, FlipFlops: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(c, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("no sequential pairs found")
	}
	for _, p := range res.Pairs {
		if p.DMin > p.DMax {
			t.Fatalf("pair %+v has DMin > DMax", p)
		}
		if p.DMin <= 0 {
			t.Fatalf("pair %+v has non-positive DMin", p)
		}
	}
	// The generated circuits must close timing at 1 GHz with zero skew,
	// otherwise the skew optimization experiments start from an infeasible
	// design point.
	if res.MaxComb >= 1000 {
		t.Errorf("MaxComb = %v ps exceeds the 1 GHz period", res.MaxComb)
	}
}

func TestPermissibleRange(t *testing.T) {
	m := DefaultModel()
	p := Pair{DMax: 500, DMin: 100}
	lo, hi := m.PermissibleRange(p, 1000, 0)
	if math.Abs(lo-(m.THold-100)) > 1e-9 {
		t.Errorf("lo = %v", lo)
	}
	if math.Abs(hi-(1000-500-m.TSetup)) > 1e-9 {
		t.Errorf("hi = %v", hi)
	}
	lo2, hi2 := m.PermissibleRange(p, 1000, 50)
	if lo2 <= lo || hi2 >= hi {
		t.Error("slack must shrink the window from both sides")
	}
}

func TestUnknownFuncFallsBack(t *testing.T) {
	c := netlist.New("u")
	f0 := c.AddCell(&netlist.Cell{Name: "ff0", Kind: netlist.FF, Fn: netlist.FuncDFF})
	g0 := c.AddCell(&netlist.Cell{Name: "g0", Kind: netlist.Gate, Fn: netlist.Func(99)})
	f1 := c.AddCell(&netlist.Cell{Name: "ff1", Kind: netlist.FF, Fn: netlist.FuncDFF})
	c.AddNet("a", f0.ID, g0.ID)
	c.AddNet("b", g0.ID, f1.ID)
	c.AddNet("c", f1.ID, f0.ID)
	res, err := Analyze(c, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	p := pairDelayPair(res, f0.ID, f1.ID)
	if p == nil || p.DMax <= 0 {
		t.Fatalf("unknown-function gate broke analysis: %+v", res.Pairs)
	}
}

func TestDriverLoadSaturates(t *testing.T) {
	m := DefaultModel()
	small := m.driverLoad(10)
	if small != 10 {
		t.Errorf("small load altered: %v", small)
	}
	cap := m.CPin*float64(m.MaxFanout) + m.CWire*m.MaxWireLoad
	if got := m.driverLoad(cap * 10); got != cap {
		t.Errorf("load not capped: %v, want %v", got, cap)
	}
	// Disabled cap passes everything through.
	m.MaxFanout = 0
	if got := m.driverLoad(1e6); got != 1e6 {
		t.Errorf("disabled cap still caps: %v", got)
	}
}

func TestWireDelayPiecewise(t *testing.T) {
	m := DefaultModel()
	// Quadratic below LBuf.
	l := m.LBuf / 2
	want := m.RWire * l * (m.CWire*l/2 + m.CPin)
	if got := m.wireDelay(l); math.Abs(got-want) > 1e-12 {
		t.Errorf("short wire delay = %v, want %v", got, want)
	}
	// Continuous at the breakpoint.
	eps := 1e-6
	below := m.wireDelay(m.LBuf - eps)
	above := m.wireDelay(m.LBuf + eps)
	if math.Abs(above-below) > 1e-6 {
		t.Errorf("discontinuity at LBuf: %v vs %v", below, above)
	}
	// Linear beyond: equal increments.
	d1 := m.wireDelay(m.LBuf+1000) - m.wireDelay(m.LBuf+500)
	d2 := m.wireDelay(m.LBuf+1500) - m.wireDelay(m.LBuf+1000)
	if math.Abs(d1-d2) > 1e-9 {
		t.Errorf("beyond-LBuf delay not linear: %v vs %v", d1, d2)
	}
}

// TestPairsDenseIndex: on the differential corpus, with the flip-flops given
// schedule indices in a shuffled order, STA.Pairs over the dense FFIndex is
// element-for-element equal to SeqPairs, and each pair maps onto the
// schedule index a map from cell ID would give. A launching flip-flop whose
// entry is -1, or whose ID lies past the end of the index, yields the
// "flip-flop without a schedule index" error from both.
func TestPairsDenseIndex(t *testing.T) {
	m := DefaultModel()
	for ci, c := range diffCircuits(t) {
		rng := rand.New(rand.NewSource(int64(ci) + 7))
		ffs := c.FlipFlops()
		rng.Shuffle(len(ffs), func(i, j int) { ffs[i], ffs[j] = ffs[j], ffs[i] })
		byID := make(map[int]int, len(ffs))
		for i, id := range ffs {
			byID[id] = i
		}
		idx := FFIndex(len(c.Cells), ffs)
		sta, err := NewSTA(c, m)
		if err != nil {
			t.Fatalf("circuit %d: %v", ci, err)
		}
		got, err := sta.Pairs(nil, idx)
		if err != nil {
			t.Fatalf("circuit %d: Pairs: %v", ci, err)
		}
		want, err := SeqPairs(c, m, idx)
		if err != nil {
			t.Fatalf("circuit %d: SeqPairs: %v", ci, err)
		}
		full, err := Analyze(c, m)
		if err != nil {
			t.Fatalf("circuit %d: Analyze: %v", ci, err)
		}
		if len(got) != len(want) || len(got) != len(full.Pairs) {
			t.Fatalf("circuit %d: %d pairs, SeqPairs %d, Analyze %d", ci, len(got), len(want), len(full.Pairs))
		}
		for i, g := range got {
			if g != want[i] {
				t.Fatalf("circuit %d: pair %d = %+v, SeqPairs %+v", ci, i, g, want[i])
			}
			if p := full.Pairs[i]; g.U != byID[p.From] || g.V != byID[p.To] {
				t.Fatalf("circuit %d: pair %d maps %d -> %d onto %d -> %d, want %d -> %d",
					ci, i, p.From, p.To, g.U, g.V, byID[p.From], byID[p.To])
			}
		}
		if len(full.Pairs) == 0 {
			continue
		}
		from := full.Pairs[rng.Intn(len(full.Pairs))].From
		for _, short := range [][]int{
			func() []int { x := append([]int(nil), idx...); x[from] = -1; return x }(),
			idx[:from],
		} {
			if _, err := sta.Pairs(nil, short); err == nil || !strings.Contains(err.Error(), "flip-flop without a schedule index") {
				t.Fatalf("circuit %d: Pairs with flip-flop %d unmapped: err %v", ci, from, err)
			}
			if _, err := SeqPairs(c, m, short); err == nil || !strings.Contains(err.Error(), "flip-flop without a schedule index") {
				t.Fatalf("circuit %d: SeqPairs with flip-flop %d unmapped: err %v", ci, from, err)
			}
		}
	}
}
