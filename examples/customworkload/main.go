// Custom workload: implement sim.Program to put your own application model
// under HARS. This example models a video transcoder with alternating
// light/heavy scenes and a memory-bound colour-grading pass that gains
// little from big cores — then lets HARS chase a 30 frames-per-minute
// target through the phase changes.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/power"
	"repro/internal/sim"
)

// transcoder is a barrier-style Program: every frame is split across all
// worker threads; a heartbeat marks each finished frame.
type transcoder struct {
	threads int
	frame   int64
	pending int
}

func (tr *transcoder) Name() string    { return "transcoder" }
func (tr *transcoder) NumThreads() int { return tr.threads }

// frameWork alternates 40-frame scenes: action scenes cost 2.5× the work of
// dialogue scenes.
func (tr *transcoder) frameWork() float64 {
	if (tr.frame/40)%2 == 0 {
		return 0.35
	}
	return 0.90
}

func (tr *transcoder) Start(p *sim.Process) {
	tr.pending = tr.threads
	for i := 0; i < tr.threads; i++ {
		p.SetWork(i, tr.frameWork())
	}
}

func (tr *transcoder) UnitDone(p *sim.Process, local int) {
	tr.pending--
	if tr.pending > 0 {
		return
	}
	p.Beat()
	tr.frame++
	tr.pending = tr.threads
	for i := 0; i < tr.threads; i++ {
		p.SetWork(i, tr.frameWork())
	}
}

// SpeedFactor: the grading pass is memory-bound, so the true big/little
// ratio is only 1.2 — below HARS's assumed 1.5, like blackscholes.
func (tr *transcoder) SpeedFactor(local int, k hmp.ClusterKind) float64 {
	if k == hmp.Big {
		return 1.2
	}
	return 1
}

func main() {
	plat := hmp.Default()
	board := power.DefaultGroundTruth(plat)
	model, err := power.ProfileAndFit(plat, board, power.ProfileConfig{})
	if err != nil {
		log.Fatal(err)
	}

	m := sim.New(plat, sim.Config{Power: board})
	proc := m.Spawn("transcoder", &transcoder{threads: 8}, 10)

	target := heartbeat.Target{Min: 1.30, Avg: 1.45, Max: 1.60} // frames/s
	mgr := core.NewManager(m, proc, core.NewEstimatorSet(plat, model), target, core.Config{Version: core.HARSEI})
	m.AddDaemon(mgr)

	for step := 0; step < 6; step++ {
		m.Run(30 * sim.Second)
		rec, _ := proc.HB.Latest()
		fmt.Printf("t=%3.0fs frame=%3d rate=%.2f/s state=%s power=%.2fW\n",
			sim.Seconds(m.Now()), rec.Index, rec.WindowRate,
			mgr.State().Pretty(plat), m.AvgPowerW())
	}
	fmt.Printf("\nadaptations: %d, manager overhead %.2f%%\n",
		mgr.Searches(), m.OverheadUtil()*100)
}
