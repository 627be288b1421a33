package bench

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"rotaryclk/internal/faultinject"
)

// TestScalingPoint runs one small sweep size end to end and checks the
// recorded rows plus the JSON round trip: one row per worker count, each
// audited, its direct-child stage spans, its whole-tree stage3.assign sum
// and its detailed-placement spans within the core.Run span, its work
// counters recorded with the swap loop's equal across the two rows, and
// the final quality bit-equal across the two rows.
func TestScalingPoint(t *testing.T) {
	rep, err := RunScaling(ScalingOptions{Sizes: []int{2000}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("got %d rows, want 2 (parallelism 1 and GOMAXPROCS)", len(rep.Points))
	}
	if rep.GoMaxProcs != runtime.GOMAXPROCS(0) {
		t.Errorf("gomaxprocs %d, want %d", rep.GoMaxProcs, runtime.GOMAXPROCS(0))
	}
	for i, pt := range rep.Points {
		if want := []int{1, rep.GoMaxProcs}[i]; pt.Parallelism != want {
			t.Errorf("row %d parallelism %d, want %d", i, pt.Parallelism, want)
		}
		if pt.Cells < 2000 || pt.FFs != 200 || pt.Rings != 4 {
			t.Errorf("row %d: %d cells / %d FFs / %d rings, want >=2000 / 200 / 4", i, pt.Cells, pt.FFs, pt.Rings)
		}
		if !pt.Audited || pt.AuditS <= 0 {
			t.Errorf("row %d: no audit recorded (audited %v, audit_s %v)", i, pt.Audited, pt.AuditS)
		}
		if pt.RunS <= 0 || pt.NSPerCell <= 0 {
			t.Errorf("row %d: non-positive run time %v s, %v ns/cell", i, pt.RunS, pt.NSPerCell)
		}
		var sum float64
		for _, name := range []string{"stage1.place", "stage2.maxslack", "stage3.assign"} {
			if pt.StageS[name] <= 0 {
				t.Errorf("row %d: stage %s not recorded: %v", i, name, pt.StageS)
			}
		}
		for _, s := range pt.StageS {
			sum += s
		}
		if sum > pt.RunS {
			t.Errorf("row %d: stage seconds sum %v exceeds run_s %v", i, sum, pt.RunS)
		}
		if a := pt.TreeS["stage3.assign"]; a <= 0 || a > pt.RunS {
			t.Errorf("row %d: tree_s stage3.assign %v outside (0, run_s %v]", i, a, pt.RunS)
		}
		if pt.DetailedS <= 0 || pt.DetailedS > pt.RunS {
			t.Errorf("row %d: detailed_s %v outside (0, run_s %v]", i, pt.DetailedS, pt.RunS)
		}
		if pt.Counters["placer.detailed.tried"] <= 0 {
			t.Errorf("row %d: no detailed swaps counted: %v", i, pt.Counters)
		}
		if pt.TotalWL <= 0 || pt.TotalPower <= 0 || pt.MaxCap <= 0 || pt.WCP <= 0 {
			t.Errorf("row %d: quality not recorded: %+v", i, pt)
		}
	}
	if a, b := rep.Points[0], rep.Points[1]; math.Float64bits(a.TotalWL) != math.Float64bits(b.TotalWL) ||
		math.Float64bits(a.TotalPower) != math.Float64bits(b.TotalPower) ||
		math.Float64bits(a.MaxCap) != math.Float64bits(b.MaxCap) {
		t.Errorf("quality differs across worker counts: %+v vs %+v", a, b)
	}
	a, b := rep.Points[0].Counters, rep.Points[1].Counters
	for _, m := range []map[string]int64{a, b} {
		for name := range m {
			if strings.HasPrefix(name, "placer.detailed.") && a[name] != b[name] {
				t.Errorf("%s: %d at parallelism 1, %d at %d", name, a[name], b[name], rep.GoMaxProcs)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "scaling.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back ScalingReport
	if err := json.Unmarshal(data, &back); err != nil || len(back.Points) != 2 {
		t.Fatalf("read back: %v (%d rows)", err, len(back.Points))
	}
}

// TestScalingRefusesDegradedRun arms a stage-6 failure so the first run
// degrades: RunScaling must return an error and no report, so no row of a
// degraded run can be written.
func TestScalingRefusesDegradedRun(t *testing.T) {
	defer faultinject.Enable(faultinject.Rule{
		Site: faultinject.SitePlacerIncremental, Call: 1,
		Err: errors.New("injected stage-6 failure"),
	})()
	rep, err := RunScaling(ScalingOptions{Sizes: []int{2000}, Seed: 7})
	if err == nil || !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("err = %v, want a degraded-run error", err)
	}
	if rep != nil {
		t.Fatalf("degraded sweep returned a report with %d rows", len(rep.Points))
	}
	if faultinject.Calls(faultinject.SitePlacerIncremental) == 0 {
		t.Fatal("the stage-6 site was never reached")
	}
}

// TestRingsFor pins the ring-count heuristic at the sweep endpoints.
func TestRingsFor(t *testing.T) {
	cases := []struct{ cells, want int }{
		{1024, 4},        // floor
		{2000, 4},        // 2x2 at the bottom
		{18000, 9},       // 3x3 mid
		{512 << 10, 256}, // 16x16 ceiling at the top size
		{4 << 20, 256},   // saturates
	}
	for _, tc := range cases {
		if got := ringsFor(tc.cells); got != tc.want {
			t.Errorf("ringsFor(%d) = %d, want %d", tc.cells, got, tc.want)
		}
	}
}

// TestScaling50k is the CI scaling smoke (`scripts/ci.sh scaling`): the
// 50k-cell sweep size — an audited core.Run at Parallelism 1 and at
// GOMAXPROCS with bit-equal quality — must finish race-clean within the
// harness wall-clock budget. Gated behind an env var so tier-1 `go test`
// stays fast.
func TestScaling50k(t *testing.T) {
	if os.Getenv("ROTARY_SCALING_SMOKE") == "" {
		t.Skip("set ROTARY_SCALING_SMOKE=1 to run the 50k scaling smoke")
	}
	rep, err := RunScaling(ScalingOptions{Sizes: []int{50_000}, Seed: 1, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("got %d rows, want 2", len(rep.Points))
	}
	for _, pt := range rep.Points {
		if pt.Cells < 50_000 || !pt.Audited {
			t.Fatalf("row %+v: want >= 50000 cells, audited", pt)
		}
	}
}
