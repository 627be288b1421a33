// Variability demonstrates why rotary clocking exists (the paper's Section I
// motivation): under the same process-variation model, a rotary clock's skew
// deviation comes only from the short tapping stubs, while a conventional
// buffered clock tree exposes every root-to-sink path. It also exercises the
// two future-work extensions of Section IX: shared local clock trees and
// ring-count selection.
//
// Run with: go run ./examples/variability
package main

import (
	"fmt"
	"log"

	"rotaryclk"
)

func main() {
	c, err := rotaryclk.Generate(rotaryclk.GenSpec{
		Name: "variability", Cells: 700, FlipFlops: 90, Seed: 99,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := rotaryclk.Run(c, rotaryclk.Config{NumRings: 9, MaxIters: 4})
	if err != nil {
		log.Fatal(err)
	}

	// Monitored skew pairs: the sequentially adjacent flip-flops.
	ffIdx := map[int]int{}
	var ffPos []rotaryclk.Point
	for i, id := range res.FFCells {
		ffIdx[id] = i
		ffPos = append(ffPos, c.Cells[id].Pos)
	}
	sta, err := rotaryclk.AnalyzeTiming(c, rotaryclk.DefaultTimingModel())
	if err != nil {
		log.Fatal(err)
	}
	var pairs []rotaryclk.VarPair
	for _, p := range sta.Pairs {
		if p.From != p.To {
			pairs = append(pairs, rotaryclk.VarPair{A: ffIdx[p.From], B: ffIdx[p.To]})
		}
	}

	params := rotaryclk.DefaultParams()
	rot, err := rotaryclk.RotarySkewVariation(params, res.Assign, pairs, 1)
	if err != nil {
		log.Fatal(err)
	}
	root := rotaryclk.BuildClockTree(ffPos)
	tree, err := rotaryclk.TreeSkewVariation(params, root, len(ffPos), pairs, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("skew variability under 10% wire / 8% buffer process variation")
	fmt.Printf("(%d sequential pairs, %d Monte Carlo samples):\n\n", rot.Pairs, rot.Samples)
	fmt.Printf("  %-22s %10s %10s\n", "", "sigma(ps)", "max(ps)")
	fmt.Printf("  %-22s %10.2f %10.2f\n", "rotary + stubs", rot.Sigma, rot.Max)
	fmt.Printf("  %-22s %10.2f %10.2f\n", "conventional tree", tree.Sigma, tree.Max)
	fmt.Printf("\n  conventional tree skew varies %.1fx more than rotary tapping\n", tree.Sigma/rot.Sigma)

	// Future work 1: shared local trees.
	lt, err := rotaryclk.BuildLocalTrees(res.Array, res.Assign, ffPos, res.Schedule, rotaryclk.LocalTreeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlocal clock trees (Section IX): %d clusters share trunks,\n", lt.NumCluster)
	fmt.Printf("  tapping wirelength %.0f -> %.0f um (%.1f%% saved)\n",
		lt.BaseWL, lt.TreeWL, 100*lt.Saved/lt.BaseWL)

	// Future work 2: ring count as a variable.
	gen := func() (*rotaryclk.Circuit, error) {
		return rotaryclk.Generate(rotaryclk.GenSpec{Name: "variability", Cells: 700, FlipFlops: 90, Seed: 99})
	}
	best, points, err := rotaryclk.AutoRings(gen, rotaryclk.Config{MaxIters: 3}, []int{4, 9, 16, 25})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nring-count sweep (Section IX):")
	fmt.Printf("  %8s %12s %12s %10s\n", "#rings", "tapWL(um)", "signalWL(um)", "maxCap(fF)")
	for _, p := range points {
		mark := " "
		if p.Rings == best {
			mark = "*"
		}
		fmt.Printf("  %7d%s %12.0f %12.0f %10.1f\n", p.Rings, mark, p.Final.TapWL, p.Final.SignalWL, p.Final.MaxCap)
	}
	fmt.Printf("  best ring count for this design: %d\n", best)
}
