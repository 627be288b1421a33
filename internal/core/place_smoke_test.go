package core

import (
	"os"
	"testing"
	"time"

	"rotaryclk/internal/obs"
)

// TestPlaceSmoke50k is the CI placement smoke (`scripts/ci.sh place`): a
// 50k-cell core.Run with 1% flip-flops, the benchmark's place block at ten
// times its size, must come back undegraded and pass Audit inside the
// harness wall-clock budget, with stage 1 through the multilevel V-cycle
// (placer.ml.vcycles == 1), so a silent fall back to the flat path fails the
// smoke. Gated behind an env var so tier-1 `go test` stays fast.
func TestPlaceSmoke50k(t *testing.T) {
	if os.Getenv("ROTARY_PLACE_SMOKE") == "" {
		t.Skip("set ROTARY_PLACE_SMOKE=1 to run the 50k placement smoke")
	}
	c := genCircuit(t, 50_000, 500, 1)
	reg := obs.NewRegistry()
	cfg := Config{NumRings: 16, MaxIters: 2, Obs: reg}
	start := time.Now()
	res, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("core.Run at %d cells: %v", len(c.Cells), time.Since(start))
	if res.Degraded {
		t.Fatalf("undisturbed run degraded: %v", res.Events)
	}
	if v := reg.Snapshot().Counter("placer.ml.vcycles"); v != 1 {
		t.Fatalf("placer.ml.vcycles = %d, want 1 (fallbacks %d): stage 1 did not run the V-cycle",
			v, reg.Snapshot().Counter("placer.ml.fallback"))
	}
	start = time.Now()
	if err := Audit(c, cfg, res); err != nil {
		t.Fatal(err)
	}
	t.Logf("core.Audit: %v", time.Since(start))
}
