// Quickstart: run a self-adaptive multithreaded application under HARS on
// the simulated big.LITTLE board and watch it settle onto an efficient
// system state.
//
// The flow mirrors the paper end to end:
//
//  1. profile the board's power with the microbenchmark and fit the linear
//     power models (the offline calibration of §5.1.1);
//  2. measure the application's maximum achievable heartbeat rate under the
//     Linux HMP scheduler at the maximum system state (the baseline);
//  3. set the performance target to half of that, ±5%;
//  4. attach the HARS-EI runtime manager and let it adapt.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gts"
	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	plat := hmp.Default()
	board := power.DefaultGroundTruth(plat)

	// 1. Offline power calibration.
	model, err := power.ProfileAndFit(plat, board, power.ProfileConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("power models fitted:", model)

	// 2. Baseline calibration run: GTS, everything at maximum.
	bench, _ := workload.ByShort("BO")
	calib := sim.New(plat, sim.Config{Power: board})
	calib.SetPlacer(gts.New(plat))
	app := calib.Spawn(bench.Name, bench.New(8), 10)
	calib.Run(30 * sim.Second)
	maxRate := app.HB.RateOver(10*sim.Second, calib.Now())
	fmt.Printf("baseline: %.2f heartbeats/s at %.2f W\n", maxRate, calib.AvgPowerW())

	// 3. Target: 50% of the maximum, ±5%.
	target := heartbeat.TargetAround(maxRate, 0.50, 0.05)
	fmt.Printf("target: %.2f (%.2f..%.2f) heartbeats/s\n", target.Avg, target.Min, target.Max)

	// 4. Managed run: HARS-EI adapts cores, frequencies and thread
	//    placement whenever the heartbeat rate leaves the band.
	m := sim.New(plat, sim.Config{Power: board})
	proc := m.Spawn(bench.Name, bench.New(8), 10)
	mgr := core.NewManager(m, proc, core.NewEstimatorSet(plat, model), target, core.Config{Version: core.HARSEI})
	mgr.OnDecision = func(d core.Decision) {
		fmt.Printf("  t=%5.1fs adapt: %s -> %s (rate %.2f)\n",
			sim.Seconds(d.Time), d.From.Pretty(plat), d.To.Pretty(plat), d.Rate)
	}
	m.AddDaemon(mgr)
	m.Run(120 * sim.Second)

	rate := proc.HB.RateOver(60*sim.Second, m.Now())
	fmt.Printf("\nHARS-EI settled on %s\n", mgr.State().Pretty(plat))
	fmt.Printf("rate %.2f hb/s (norm perf %.2f), power %.2f W, manager overhead %.2f%%\n",
		rate, heartbeat.NormalizedPerf(target, rate), m.AvgPowerW(), m.OverheadUtil()*100)
	fmt.Printf("perf/watt vs baseline: %.1fx\n",
		(heartbeat.NormalizedPerf(target, rate)/m.AvgPowerW())/
			(1.0/calib.AvgPowerW()))
}
