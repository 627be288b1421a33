package variation

import (
	"math/rand"
	"testing"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/clocktree"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/rotary"
)

func setup(t *testing.T) (rotary.Params, *assign.Assignment, []geom.Point, []Pair) {
	t.Helper()
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(4000, 4000))
	arr, err := rotary.NewArray(die, 3, 3, 0.6, rotary.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var ffs []assign.FF
	var pos []geom.Point
	for i := 0; i < 40; i++ {
		p := geom.Pt(rng.Float64()*4000, rng.Float64()*4000)
		ffs = append(ffs, assign.FF{Cell: i, Pos: p, Target: rng.Float64() * 1000})
		pos = append(pos, p)
	}
	asg, err := assign.MinCost(&assign.Problem{Array: arr, FFs: ffs})
	if err != nil {
		t.Fatal(err)
	}
	var pairs []Pair
	for i := 0; i+1 < len(ffs); i += 2 {
		pairs = append(pairs, Pair{A: i, B: i + 1})
	}
	return arr.Params, asg, pos, pairs
}

func TestRotarySkewSmall(t *testing.T) {
	params, asg, _, pairs := setup(t)
	st, err := RotarySkew(params, asg, pairs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sigma <= 0 {
		t.Fatalf("sigma = %v", st.Sigma)
	}
	// The paper's selling point: rotary skew variation is a few ps.
	if st.Sigma > 10 {
		t.Errorf("rotary skew sigma %v ps implausibly large", st.Sigma)
	}
	if st.Max < st.MeanAbs {
		t.Errorf("max %v below mean abs %v", st.Max, st.MeanAbs)
	}
}

func TestTreeSkewLargerThanRotary(t *testing.T) {
	params, asg, pos, pairs := setup(t)
	rot, err := RotarySkew(params, asg, pairs, 2)
	if err != nil {
		t.Fatal(err)
	}
	root := clocktree.Build(pos)
	tree, err := TreeSkew(params, root, len(pos), pairs, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Conventional trees see buffer + long-wire variation on every path:
	// their skew sigma must dominate the rotary stubs by a wide margin
	// (the paper's motivating observation).
	if tree.Sigma < 3*rot.Sigma {
		t.Errorf("tree sigma %v not clearly above rotary sigma %v", tree.Sigma, rot.Sigma)
	}
}

func TestSkewDeterministicBySeed(t *testing.T) {
	params, asg, _, pairs := setup(t)
	a, err := RotarySkew(params, asg, pairs, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RotarySkew(params, asg, pairs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed gave different stats: %+v vs %+v", a, b)
	}
	c, err := RotarySkew(params, asg, pairs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Errorf("different seeds gave identical stats")
	}
}

func TestPairValidation(t *testing.T) {
	params, asg, pos, _ := setup(t)
	if _, err := RotarySkew(params, asg, []Pair{{A: 0, B: 999}}, 0); err == nil {
		t.Error("out-of-range pair accepted")
	}
	root := clocktree.Build(pos)
	if _, err := TreeSkew(params, root, len(pos), []Pair{{A: -1, B: 0}}, 0); err == nil {
		t.Error("negative pair accepted")
	}
}

func TestEmptyPairs(t *testing.T) {
	params, asg, _, _ := setup(t)
	st, err := RotarySkew(params, asg, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sigma != 0 || st.Pairs != 0 {
		t.Errorf("empty pairs stats = %+v", st)
	}
}

func TestVariationScalesWithSigma(t *testing.T) {
	params, asg, _, pairs := setup(t)
	lo, err := rotarySkew(params, asg, pairs, 6, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := rotarySkew(params, asg, pairs, 6, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	// With the same residual jitter, larger wire sigma means larger skew
	// spread (jitter floors the comparison, so only require monotone).
	if hi.Sigma <= lo.Sigma {
		t.Errorf("sigma did not grow with wire variation: %v vs %v", lo.Sigma, hi.Sigma)
	}
}
