package core

import (
	"os"
	"testing"
	"time"
)

// TestPlaceSmoke50k is the CI placement smoke (`scripts/ci.sh place`): a
// 50k-cell core.Run with 1% flip-flops, the benchmark's place block at ten
// times its size, must come back undegraded and pass Audit inside the
// harness wall-clock budget. Gated behind an env var so tier-1 `go test`
// stays fast.
func TestPlaceSmoke50k(t *testing.T) {
	if os.Getenv("ROTARY_PLACE_SMOKE") == "" {
		t.Skip("set ROTARY_PLACE_SMOKE=1 to run the 50k placement smoke")
	}
	c := genCircuit(t, 50_000, 500, 1)
	cfg := Config{NumRings: 16, MaxIters: 2}
	start := time.Now()
	res, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("core.Run at %d cells: %v", len(c.Cells), time.Since(start))
	if res.Degraded {
		t.Fatalf("undisturbed run degraded: %v", res.Events)
	}
	start = time.Now()
	if err := Audit(c, cfg, res); err != nil {
		t.Fatal(err)
	}
	t.Logf("core.Audit: %v", time.Since(start))
}
