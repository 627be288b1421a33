package bench

import (
	"os"
	"path/filepath"
	"testing"
)

// TestScalingPoint runs one small sweep point end to end and sanity-checks
// the recorded row plus the JSON round trip.
func TestScalingPoint(t *testing.T) {
	rep, err := RunScaling(ScalingOptions{Sizes: []int{2000}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 1 {
		t.Fatalf("got %d points, want 1", len(rep.Points))
	}
	pt := rep.Points[0]
	if pt.Cells < 2000 || pt.FFs != 200 {
		t.Errorf("point stats %d cells / %d FFs, want >=2000 / 200", pt.Cells, pt.FFs)
	}
	if pt.NSPerCell <= 0 || pt.AllocsPerCell <= 0 || pt.TotalNS <= 0 {
		t.Errorf("non-positive normalized metrics: %+v", pt)
	}
	if pt.TotalNS != pt.GenNS+pt.SystemNS+pt.PlaceNS+pt.AssignNS {
		t.Errorf("total %d != stage sum", pt.TotalNS)
	}
	if pt.LPZ <= 0 || pt.MaxCap < pt.LPZ {
		t.Errorf("LP optimum %v / rounded max cap %v inconsistent", pt.LPZ, pt.MaxCap)
	}
	if pt.SignalWL <= 0 || pt.WCP <= 0 {
		t.Errorf("quality metrics not recorded: signal_wl %v, wcp %v", pt.SignalWL, pt.WCP)
	}
	path := filepath.Join(t.TempDir(), "scaling.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || len(data) == 0 {
		t.Fatalf("read back: %v (%d bytes)", err, len(data))
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

// TestScaling50k is the CI scaling smoke (`scripts/ci.sh scaling`): a
// 50k-cell generate + place + assign must finish race-clean within the
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
	pt := rep.Points[0]
	if pt.Cells < 50_000 {
		t.Fatalf("got %d cells, want >= 50000", pt.Cells)
	}
	if pt.LPZ <= 0 {
		t.Fatalf("LP optimum %v, want > 0", pt.LPZ)
	}
}
