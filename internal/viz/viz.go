// Package viz renders placements, rotary ring arrays, and tapping
// assignments as standalone SVG files, so a flow result can be inspected
// visually: cells as grey squares, flip-flops colored, rings as double
// square outlines, and each tapping stub as a line from the ring to its
// flip-flop.
package viz

import (
	"fmt"
	"io"
	"strings"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/geom"
	"rotaryclk/internal/netlist"
	"rotaryclk/internal/rotary"
)

// width is the output width in px; the height follows the die's aspect.
const width = 900.0

// Scene accumulates layers and writes one SVG.
type Scene struct {
	die  geom.Rect
	body strings.Builder
}

// NewScene starts a scene over the given die outline.
func NewScene(die geom.Rect) *Scene { return &Scene{die: die} }

// scale maps die coordinates to pixel coordinates (SVG y grows downward).
func (s *Scene) scale() float64 {
	if s.die.W() <= 0 {
		return 1
	}
	return width / s.die.W()
}

func (s *Scene) px(p geom.Point) (float64, float64) {
	k := s.scale()
	return (p.X - s.die.Lo.X) * k, (s.die.Hi.Y - p.Y) * k
}

// AddCircuit draws the circuit's cells: gates light grey, flip-flops blue,
// pads dark ticks on the boundary. Nets are not drawn (too dense to read).
func (s *Scene) AddCircuit(c *netlist.Circuit) {
	k := s.scale()
	for _, cell := range c.Cells {
		x, y := s.px(cell.Pos)
		w, h := cell.W*k, cell.H*k
		switch {
		case cell.Kind == netlist.FF:
			fmt.Fprintf(&s.body,
				`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#2b6fb3" opacity="0.9"/>`+"\n",
				x-w/2, y-h/2, maxf(w, 3), maxf(h, 3))
		case cell.Fixed:
			fmt.Fprintf(&s.body,
				`<rect x="%.1f" y="%.1f" width="4" height="4" fill="#333"/>`+"\n", x-2, y-2)
		default:
			fmt.Fprintf(&s.body,
				`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#bbb" opacity="0.6"/>`+"\n",
				x-w/2, y-h/2, maxf(w, 2), maxf(h, 2))
		}
	}
}

// AddArray draws the rotary rings as double square outlines with their IDs.
func (s *Scene) AddArray(arr *rotary.Array) {
	k := s.scale()
	for _, r := range arr.Rings {
		b := r.Bounds()
		x, y := s.px(geom.Pt(b.Lo.X, b.Hi.Y))
		w, h := b.W()*k, b.H()*k
		fmt.Fprintf(&s.body,
			`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" stroke="#b3402b" stroke-width="2"/>`+"\n",
			x, y, w, h)
		inset := 4.0
		fmt.Fprintf(&s.body,
			`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" stroke="#b3402b" stroke-width="1" opacity="0.6"/>`+"\n",
			x+inset, y+inset, maxf(w-2*inset, 1), maxf(h-2*inset, 1))
		cx, cy := s.px(r.Center)
		fmt.Fprintf(&s.body,
			`<text x="%.1f" y="%.1f" font-size="11" fill="#b3402b" text-anchor="middle">R%d</text>`+"\n",
			cx, cy, r.ID)
	}
}

// AddTaps draws one line per flip-flop from its tapping point to the
// flip-flop, green for normal polarity and orange for complementary taps.
func (s *Scene) AddTaps(asg *assign.Assignment, ffPos []geom.Point) {
	for i, tap := range asg.Taps {
		if i >= len(ffPos) {
			break
		}
		x1, y1 := s.px(tap.Point)
		x2, y2 := s.px(ffPos[i])
		color := "#2ba35c"
		if tap.Complement {
			color = "#d9822b"
		}
		fmt.Fprintf(&s.body,
			`<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="1.2"/>`+"\n",
			x1, y1, x2, y2, color)
		fmt.Fprintf(&s.body,
			`<circle cx="%.1f" cy="%.1f" r="2.2" fill="%s"/>`+"\n", x1, y1, color)
	}
}

// WriteTo writes the assembled SVG document.
func (s *Scene) WriteTo(w io.Writer) (int64, error) {
	height := s.die.H() * s.scale()
	var doc strings.Builder
	fmt.Fprintf(&doc, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		width, height, width, height)
	fmt.Fprintf(&doc, `<rect x="0" y="0" width="%.0f" height="%.0f" fill="#fdfdfb" stroke="#444"/>`+"\n", width, height)
	doc.WriteString(s.body.String())
	doc.WriteString("</svg>\n")
	n, err := io.WriteString(w, doc.String())
	return int64(n), err
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
