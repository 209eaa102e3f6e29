package repro

import (
	"testing"

	"repro/internal/gts"
	"repro/internal/hmp"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestEquivalenceGTSWindowed is TestEquivalenceGTS without the run-queue
// checker. That checker is a plain per-tick daemon, so it pins its machine
// to Step; without it the GTS-placed machine advances in certified windows,
// and the windowed run must reproduce the same golden digest.
func TestEquivalenceGTSWindowed(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
	m.SetPlacer(gts.New(plat))
	bo, _ := workload.ByShort("BO")
	fe, _ := workload.ByShort("FE")
	m.Spawn("bo", bo.New(4), 10)
	m.Spawn("fe", fe.New(4), 10)
	m.Run(5 * sim.Second)
	checkDigest(t, digestOf(m),
		"0x1.a3a5f235a1e11p+05",
		[]int64{9, 59}, []string{"0x1.c83083c67d43cp+04", "0x1.fc83a184d8e24p+05"}, []int{55, 210},
		39002599, 0, 60)
}
