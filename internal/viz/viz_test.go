package viz

import (
	"strings"
	"testing"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/core"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/rotary"
)

func renderFlow(t *testing.T) string {
	t.Helper()
	c, err := netlist.Generate(netlist.GenSpec{Name: "viz", Cells: 200, FlipFlops: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(c, core.Config{NumRings: 4, MaxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScene(c.Die)
	s.AddCircuit(c)
	s.AddArray(res.Array)
	var ffPos []geom.Point
	for _, id := range res.FFCells {
		ffPos = append(ffPos, c.Cells[id].Pos)
	}
	s.AddTaps(res.Assign, ffPos)
	var sb strings.Builder
	if _, err := s.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestSceneProducesValidSVG(t *testing.T) {
	svg := renderFlow(t)
	if !strings.HasPrefix(svg, "<svg xmlns=") {
		t.Fatalf("not an SVG document:\n%.80s", svg)
	}
	if !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatal("unterminated SVG")
	}
	// Rings drawn (4 rings -> at least 8 rect outlines + labels).
	if n := strings.Count(svg, `stroke="#b3402b"`); n < 8 {
		t.Errorf("only %d ring strokes", n)
	}
	if !strings.Contains(svg, ">R0<") {
		t.Error("ring label missing")
	}
	// One tap line + marker per flip-flop.
	if n := strings.Count(svg, `<circle`); n != 24 {
		t.Errorf("tap markers = %d, want 24", n)
	}
	// Flip-flops drawn in blue.
	if n := strings.Count(svg, `fill="#2b6fb3"`); n != 24 {
		t.Errorf("flip-flop rects = %d, want 24", n)
	}
}

// TestSceneOptions pins the scene's fixed rendering choices: 900 px wide,
// every gate drawn, no net lines.
func TestSceneOptions(t *testing.T) {
	svg := renderFlow(t)
	if !strings.Contains(svg, `<svg xmlns="http://www.w3.org/2000/svg" width="900" `) {
		t.Errorf("scene is not 900 px wide:\n%.120s", svg)
	}
	if n := strings.Count(svg, `fill="#bbb"`); n == 0 {
		t.Error("no gates drawn")
	}
	if strings.Contains(svg, `stroke="#ccc"`) {
		t.Error("net lines drawn")
	}
}

func TestSceneCoordinateMapping(t *testing.T) {
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 50))
	s := NewScene(die) // scale 9, height 450
	x, y := s.px(geom.Pt(0, 0))
	if x != 0 || y != 450 {
		t.Errorf("origin maps to (%v,%v), want (0,450): SVG y is flipped", x, y)
	}
	x, y = s.px(geom.Pt(100, 50))
	if x != 900 || y != 0 {
		t.Errorf("top-right maps to (%v,%v), want (900,0)", x, y)
	}
}

func TestSceneEmptyLayers(t *testing.T) {
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	s := NewScene(die)
	s.AddTaps(&assign.Assignment{}, nil)
	s.AddArray(&rotary.Array{Params: rotary.DefaultParams()})
	var sb strings.Builder
	if _, err := s.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "</svg>") {
		t.Fatal("document incomplete")
	}
}

func TestTapPolarityColors(t *testing.T) {
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	s := NewScene(die)
	asg := &assign.Assignment{
		Taps: []rotary.Tap{
			{Point: geom.Pt(10, 10), Complement: false},
			{Point: geom.Pt(20, 20), Complement: true},
		},
		Ring: []int{0, 0},
	}
	s.AddTaps(asg, []geom.Point{geom.Pt(12, 12), geom.Pt(22, 22)})
	var sb strings.Builder
	if _, err := s.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	svg := sb.String()
	if !strings.Contains(svg, "#2ba35c") {
		t.Error("normal-polarity color missing")
	}
	if !strings.Contains(svg, "#d9822b") {
		t.Error("complementary-polarity color missing")
	}
}
