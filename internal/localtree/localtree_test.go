package localtree

import (
	"math"
	"math/rand"
	"testing"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/rotary"
)

// clusteredProblem builds an assignment where flip-flops sit in tight
// clusters far from their ring, the regime where shared trunks pay off.
func clusteredProblem(t *testing.T, seed int64) (*rotary.Array, *assign.Assignment, []geom.Point, []float64) {
	t.Helper()
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(3000, 3000))
	arr, err := rotary.NewArray(die, 2, 2, 0.5, rotary.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var ffs []assign.FF
	// Three clusters of five, each in a gap between rings.
	centers := []geom.Point{geom.Pt(1500, 1500), geom.Pt(740, 1500), geom.Pt(1500, 760)}
	id := 0
	for ci, ctr := range centers {
		for k := 0; k < 5; k++ {
			ffs = append(ffs, assign.FF{
				Cell: id,
				Pos: geom.Pt(
					ctr.X+rng.Float64()*60-30,
					ctr.Y+rng.Float64()*60-30,
				),
				Target: 100*float64(ci) + rng.Float64()*40,
			})
			id++
		}
	}
	p := &assign.Problem{Array: arr, FFs: ffs}
	asg, err := assign.MinCost(p)
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]geom.Point, len(ffs))
	tgt := make([]float64, len(ffs))
	for i, f := range ffs {
		pos[i] = f.Pos
		tgt[i] = f.Target
	}
	return arr, asg, pos, tgt
}

func TestBuildSavesWirelength(t *testing.T) {
	arr, asg, pos, tgt := clusteredProblem(t, 1)
	res, err := Build(arr, asg, pos, tgt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Saved < 0 {
		t.Fatalf("local trees increased wirelength by %v", -res.Saved)
	}
	if res.NumCluster == 0 {
		t.Fatal("no cluster formed on a clustered instance")
	}
	if res.Saved <= 0 {
		t.Errorf("expected positive savings on clustered flip-flops, got %v", res.Saved)
	}
	if math.Abs(res.BaseWL-res.TreeWL-res.Saved) > 1e-9 {
		t.Errorf("savings inconsistent: %v vs %v - %v", res.Saved, res.BaseWL, res.TreeWL)
	}
}

func TestBuildRealizesDelays(t *testing.T) {
	arr, asg, pos, tgt := clusteredProblem(t, 2)
	res, err := Build(arr, asg, pos, tgt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	T := arr.Params.Period
	for _, tree := range res.Trees {
		if len(tree.Delays) != len(tree.FFs) {
			t.Fatalf("tree delays/FFs mismatch")
		}
		for k, i := range tree.FFs {
			d := math.Mod(tree.Delays[k]-tgt[i], T)
			if d < 0 {
				d += T
			}
			if math.Min(d, T-d) > 1e-3 {
				t.Errorf("ff %d: tree delay %v does not realize target %v", i, tree.Delays[k], tgt[i])
			}
			// Branches at least reach the flip-flop.
			if tree.Branches[k] < tree.Junction.Manhattan(pos[i])-1e-6 {
				t.Errorf("ff %d: branch %v shorter than distance %v", i, tree.Branches[k], tree.Junction.Manhattan(pos[i]))
			}
		}
	}
}

func TestBuildCoversEveryFF(t *testing.T) {
	arr, asg, pos, tgt := clusteredProblem(t, 3)
	res, err := Build(arr, asg, pos, tgt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for _, tree := range res.Trees {
		for _, i := range tree.FFs {
			seen[i]++
		}
	}
	for _, i := range res.Single {
		seen[i]++
	}
	for i := range pos {
		if seen[i] != 1 {
			t.Fatalf("ff %d covered %d times", i, seen[i])
		}
	}
}

func TestBuildScatteredNoRegression(t *testing.T) {
	// Widely scattered flip-flops with wildly different targets: clustering
	// rarely helps; the result must never be worse than the base.
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(3000, 3000))
	arr, err := rotary.NewArray(die, 2, 2, 0.5, rotary.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	var ffs []assign.FF
	for i := 0; i < 30; i++ {
		ffs = append(ffs, assign.FF{
			Cell:   i,
			Pos:    geom.Pt(rng.Float64()*3000, rng.Float64()*3000),
			Target: rng.Float64() * 1000,
		})
	}
	asg, err := assign.MinCost(&assign.Problem{Array: arr, FFs: ffs})
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]geom.Point, len(ffs))
	tgt := make([]float64, len(ffs))
	for i, f := range ffs {
		pos[i] = f.Pos
		tgt[i] = f.Target
	}
	res, err := Build(arr, asg, pos, tgt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Saved < -1e-9 {
		t.Fatalf("scattered instance regressed by %v", -res.Saved)
	}
}

func TestBuildInputValidation(t *testing.T) {
	arr, asg, pos, tgt := clusteredProblem(t, 5)
	if _, err := Build(arr, asg, pos[:1], tgt, Options{}); err == nil {
		t.Error("short positions accepted")
	}
	if _, err := Build(arr, asg, pos, tgt[:1], Options{}); err == nil {
		t.Error("short targets accepted")
	}
}

// TestInvertBranchDelay: the branch lengths Build sizes come from
// Params.StubLength, which must invert StubDelay on branch-scale lengths
// and refuse a target no wire can realize.
func TestInvertBranchDelay(t *testing.T) {
	p := rotary.DefaultParams()
	for _, b := range []float64{0, 25, 333, 900} {
		target := p.StubDelay(b)
		got, ok := p.StubLength(target)
		if !ok || math.Abs(got-b) > 1e-6 {
			t.Errorf("StubLength(StubDelay(%v)) = %v, %v", b, got, ok)
		}
	}
	if _, ok := p.StubLength(-5); ok {
		t.Error("negative target inverted")
	}
}
