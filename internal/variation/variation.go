// Package variation quantifies clock-skew variability under process
// variations, the motivation of the paper's introduction: interconnect
// variation alone shifts conventional clock-tree skew by ~25% of its nominal
// value (Liu et al. [3]), while a rotary array holds skew variation to a few
// picoseconds (Wood et al. measured 5.5 ps at 950 MHz) because the
// phase-locked rings leave only the short tapping stubs exposed.
//
// The module Monte-Carlo samples per-segment wire R/C (and per-buffer delay)
// multipliers and reports the distribution of skew deviations for
//
//   - a rotary clock assignment: only the stub wires vary; ring phases are
//     locked by construction (plus a small residual ring jitter), and
//   - a conventional buffered clock tree: every root-to-sink segment and
//     buffer varies; shared path segments cancel between nearby sinks.
package variation

import (
	"fmt"
	"math"
	"math/rand"

	"rotaryclk/internal/assign"
	"rotaryclk/internal/clocktree"
	"rotaryclk/internal/rotary"
)

// The Monte Carlo model.
const (
	sigmaWire = 0.10 // relative sigma of per-segment wire R and C
	sigmaBuf  = 0.08 // relative sigma of per-buffer delay
	ringJit   = 1.5  // residual rotary ring jitter sigma, ps
	bufDelay  = 35   // nominal buffer delay in the tree, ps
	bufEvery  = 450  // one tree buffer per this much wirelength, um
	samples   = 500  // Monte Carlo samples
)

// Stats summarizes skew deviations (sampled skew minus nominal skew) over
// all pairs and samples.
type Stats struct {
	Sigma   float64 // standard deviation, ps
	MeanAbs float64 // mean absolute deviation, ps
	Max     float64 // worst absolute deviation, ps
	Pairs   int
	Samples int
}

// Pair identifies two sink indices whose skew is monitored (typically the
// sequentially adjacent flip-flop pairs).
type Pair struct{ A, B int }

// RotarySkew samples the skew deviation of a rotary assignment: each
// flip-flop's delay is its (locked) ring phase plus the Elmore delay of its
// stub under sampled R/C multipliers, plus residual ring jitter. seed
// seeds the sampler.
func RotarySkew(params rotary.Params, asg *assign.Assignment, pairs []Pair, seed int64) (Stats, error) {
	return rotarySkew(params, asg, pairs, seed, sigmaWire)
}

// rotarySkew is RotarySkew with wire sigma sigma.
func rotarySkew(params rotary.Params, asg *assign.Assignment, pairs []Pair, seed int64, sigma float64) (Stats, error) {
	n := len(asg.Taps)
	for _, p := range pairs {
		if p.A < 0 || p.A >= n || p.B < 0 || p.B >= n {
			return Stats{}, fmt.Errorf("variation: pair %+v out of range (%d taps)", p, n)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	nominal := make([]float64, n)
	for i, tap := range asg.Taps {
		nominal[i] = params.StubDelay(tap.WireLen)
	}
	dev := newAccum()
	delays := make([]float64, n)
	for s := 0; s < samples; s++ {
		for i, tap := range asg.Taps {
			rMul := 1 + rng.NormFloat64()*sigma
			cMul := 1 + rng.NormFloat64()*sigma
			l := tap.WireLen
			d := 0.5*params.RWire*rMul*params.CWire*cMul*l*l + params.RWire*rMul*params.CFF*l
			d += rng.NormFloat64() * ringJit
			delays[i] = d - nominal[i]
		}
		for _, p := range pairs {
			dev.add(delays[p.A] - delays[p.B])
		}
	}
	return dev.stats(len(pairs), samples), nil
}

// TreeSkew samples the skew deviation of a conventional buffered clock tree
// over the given sinks: per-edge wire delay (Elmore with sampled R/C) plus
// sampled buffer delays, accumulated root-to-leaf; deviations on shared
// segments cancel between sinks with a common ancestor path, exactly as in a
// real tree. seed seeds the sampler.
func TreeSkew(params rotary.Params, root *clocktree.Node, numSinks int, pairs []Pair, seed int64) (Stats, error) {
	for _, p := range pairs {
		if p.A < 0 || p.A >= numSinks || p.B < 0 || p.B >= numSinks {
			return Stats{}, fmt.Errorf("variation: pair %+v out of range (%d sinks)", p, numSinks)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	dev := newAccum()
	arrival := make([]float64, numSinks)
	for s := 0; s < samples; s++ {
		var walk func(n *clocktree.Node, acc float64)
		walk = func(n *clocktree.Node, acc float64) {
			if len(n.Children) == 0 {
				if n.Sink >= 0 && n.Sink < numSinks {
					arrival[n.Sink] = acc
				}
				return
			}
			for _, ch := range n.Children {
				l := n.Pos.Manhattan(ch.Pos)
				rMul := 1 + rng.NormFloat64()*sigmaWire
				cMul := 1 + rng.NormFloat64()*sigmaWire
				wire := 0.5 * params.RWire * rMul * params.CWire * cMul * l * l
				nomWire := 0.5 * params.RWire * params.CWire * l * l
				nBuf := 1 + int(l/bufEvery)
				var buf, nomBuf float64
				for b := 0; b < nBuf; b++ {
					buf += bufDelay * (1 + rng.NormFloat64()*sigmaBuf)
					nomBuf += bufDelay
				}
				walk(ch, acc+(wire-nomWire)+(buf-nomBuf))
			}
		}
		walk(root, 0)
		for _, p := range pairs {
			dev.add(arrival[p.A] - arrival[p.B])
		}
	}
	return dev.stats(len(pairs), samples), nil
}

// accum is a running deviation accumulator.
type accum struct {
	n          int
	sum, sumSq float64
	sumAbs     float64
	max        float64
}

func newAccum() *accum { return &accum{} }

func (a *accum) add(v float64) {
	a.n++
	a.sum += v
	a.sumSq += v * v
	av := math.Abs(v)
	a.sumAbs += av
	if av > a.max {
		a.max = av
	}
}

func (a *accum) stats(pairs, samples int) Stats {
	if a.n == 0 {
		return Stats{Pairs: pairs, Samples: samples}
	}
	mean := a.sum / float64(a.n)
	varc := a.sumSq/float64(a.n) - mean*mean
	if varc < 0 {
		varc = 0
	}
	return Stats{
		Sigma:   math.Sqrt(varc),
		MeanAbs: a.sumAbs / float64(a.n),
		Max:     a.max,
		Pairs:   pairs,
		Samples: samples,
	}
}
