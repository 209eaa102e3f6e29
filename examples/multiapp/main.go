// Multi-application management with MP-HARS: two self-adaptive applications
// share the board; each owns a private core partition while the cluster
// frequencies are shared under the interference-aware protocol (freezing
// counts, frozen states, Table 4.3).
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gts"
	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/mphars"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

// soloMax measures one benchmark's maximum achievable rate running alone.
func soloMax(plat *hmp.Platform, board *power.GroundTruth, short string) float64 {
	b, _ := workload.ByShort(short)
	m := sim.New(plat, sim.Config{Power: board})
	m.SetPlacer(gts.New(plat))
	p := m.Spawn(b.Name, b.New(8), 10)
	m.Run(30 * sim.Second)
	return p.HB.RateOver(12*sim.Second, m.Now())
}

func main() {
	plat := hmp.Default()
	board := power.DefaultGroundTruth(plat)
	model, err := power.ProfileAndFit(plat, board, power.ProfileConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// Per-application targets: half of each solo maximum.
	names := [2]string{"BO", "FL"}
	var targets [2]heartbeat.Target
	for i, n := range names {
		max := soloMax(plat, board, n)
		targets[i] = heartbeat.TargetAround(max, 0.50, 0.05)
		fmt.Printf("%s: solo max %.2f hb/s, target %.2f\n", n, max, targets[i].Avg)
	}

	// One machine, two applications, one MP-HARS manager.
	m := sim.New(plat, sim.Config{Power: board})
	mgr := mphars.New(m, core.NewEstimatorSet(plat, model), mphars.Config{Version: mphars.MPHARSE})
	m.AddDaemon(mgr)
	var procs [2]*sim.Process
	for i, n := range names {
		b, _ := workload.ByShort(n)
		procs[i] = m.Spawn(b.Name, b.New(8), 10)
		// Even initial partition: 2 big + 2 little cores each.
		mgr.Register(m, procs[i], targets[i], 2, 2)
	}

	for step := 0; step < 6; step++ {
		m.Run(20 * sim.Second)
		fmt.Printf("\nt=%3.0fs  big cluster %.1f GHz%s, little %.1f GHz%s\n",
			sim.Seconds(m.Now()),
			float64(plat.Clusters[hmp.Big].KHz(m.Level(hmp.Big)))/1e6, frozenMark(mgr, hmp.Big),
			float64(plat.Clusters[hmp.Little].KHz(m.Level(hmp.Little)))/1e6, frozenMark(mgr, hmp.Little))
		for i, p := range procs {
			rec, _ := p.HB.Latest()
			big, little := mgr.Allocation(p)
			fmt.Printf("  %-3s rate=%.2f (target %.2f) cores: %d big + %d little\n",
				names[i], rec.WindowRate, targets[i].Avg, big, little)
		}
	}

	fmt.Printf("\ntotal power %.2f W; searches: %d\n", m.AvgPowerW(), mgr.Searches())
	fmt.Println("core partitions never overlapped; frequency decreases froze the")
	fmt.Println("shared cluster until every application re-collected reliable data.")
}

func frozenMark(mgr *mphars.Manager, k hmp.ClusterKind) string {
	if mgr.Frozen(k) {
		return " [frozen]"
	}
	return ""
}
