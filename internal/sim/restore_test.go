package sim

import (
	"testing"

	"repro/internal/hmp"
)

// TestRestorePrimesWindowPlan checks that Restore sizes the reusable window
// plan for the threads it adds, as Spawn does, so the destination's first
// certification does not grow the plan inside the hot loop.
func TestRestorePrimesWindowPlan(t *testing.T) {
	plat := hmp.Default()
	src := New(plat, Config{})
	src.SetPlacer(NewMaskBalancer())
	prog := &loop{units: []float64{0.3, 0.3, 0.3, 0.3, 0.5, 0.5, 0.5, 0.5}}
	p := src.Spawn("app", prog, 10)
	src.Run(100 * Millisecond)
	snap := src.Checkpoint(p)

	dst := New(plat, Config{})
	dst.SetPlacer(NewMaskBalancer())
	dst.Restore(snap, dst.Now())
	if got, want := cap(dst.steady.threads), len(dst.Threads()); got < want {
		t.Fatalf("window plan holds %d threads after Restore, want at least the machine's %d", got, want)
	}
}
