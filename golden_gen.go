//go:build ignore

// golden_gen prints exact-state digests of reference simulation runs; the
// values are embedded in equivalence_test.go to pin the incremental
// run-queue refactor to the seed full-scan behaviour.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gts"
	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

func digest(name string, m *sim.Machine) {
	fmt.Printf("%s:\n", name)
	fmt.Printf("  energy: %x\n", m.EnergyJ())
	for _, p := range m.Procs() {
		mig := 0
		for _, t := range p.Threads {
			mig += t.Migrations()
		}
		fmt.Printf("  proc %s: beats=%d work=%x mig=%d\n", p.Name, p.HB.Count(), p.WorkDone(), mig)
	}
	busy := sim.Time(0)
	for cpu := 0; cpu < m.Platform().TotalCores(); cpu++ {
		busy += m.BusyTime(cpu)
	}
	fmt.Printf("  busy: %d overhead: %d\n", busy, m.Overhead())
	rq := 0
	for cpu := 0; cpu < m.Platform().TotalCores(); cpu++ {
		rq += m.RunQueueLen(cpu) * (cpu + 1)
	}
	fmt.Printf("  rq: %d\n", rq)
}

func main() {
	plat := hmp.Default()

	// 1. SW (data-parallel, cache-sensitive) under the mask balancer.
	{
		m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
		b, _ := workload.ByShort("SW")
		m.Spawn("sw", b.New(8), 10)
		m.Run(5 * sim.Second)
		digest("sw-maskbalancer", m)
	}
	// 2. FE (pipeline) under the mask balancer.
	{
		m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
		b, _ := workload.ByShort("FE")
		m.Spawn("fe", b.New(8), 10)
		m.Run(5 * sim.Second)
		digest("fe-maskbalancer", m)
	}
	// 3. SW under a HARS-E manager (exercises affinity masks, DVFS, overhead).
	{
		m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
		b, _ := workload.ByShort("SW")
		p := m.Spawn("sw", b.New(8), 10)
		lm := power.SyntheticLinearModel(plat)
		tgt := heartbeat.Target{Min: 5.0, Avg: 6.0, Max: 7.0}
		mgr := core.NewManager(m, p, core.NewEstimatorSet(plat, lm), tgt, core.Config{Version: core.HARSE, OverheadCPU: 4, AdaptEvery: 2})
		m.AddDaemon(mgr)
		m.Run(12 * sim.Second)
		fmt.Printf("hars state: %v searches=%d explored=%d decisions=%d\n",
			mgr.State(), mgr.Searches(), mgr.ExploredTotal(), len(mgr.Decisions()))
		digest("sw-hars-e", m)
	}
	// 4. BO + FE under the GTS placer (exercises RanLastTick load tracking).
	{
		m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
		m.SetPlacer(gts.New(plat))
		bo, _ := workload.ByShort("BO")
		fe, _ := workload.ByShort("FE")
		m.Spawn("bo", bo.New(4), 10)
		m.Spawn("fe", fe.New(4), 10)
		m.Run(5 * sim.Second)
		digest("bofe-gts", m)
	}
}
