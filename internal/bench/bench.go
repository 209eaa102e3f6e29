// Package bench defines the repository's tracked micro-benchmarks as plain
// functions so they can run both under `go test -bench` (bench_test.go at
// the repository root delegates here) and under cmd/hars-bench, which
// executes them with testing.Benchmark and records the results as
// BENCH_<n>.json — the perf trajectory the ROADMAP's "fast as the hardware
// allows" north-star is measured against.
package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/gts"
	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Case is one tracked benchmark.
type Case struct {
	Name string
	F    func(b *testing.B)
}

// Cases returns the tracked hot-path benchmarks in reporting order.
func Cases() []Case {
	return []Case{
		{"SimSecond", SimSecond},
		{"SimSecondStepped", SimSecondStepped},
		{"SimSecondPipeline", SimSecondPipeline},
		{"SimSecondThermal", SimSecondThermal},
		{"SimSecondGTS", SimSecondGTS},
		{"SimSecondGTSStepped", SimSecondGTSStepped},
		{"SearchExhaustive", SearchExhaustive},
		{"Assign", Assign},
		{"FleetQuiescent", FleetQuiescent},
		{"FleetQuiescentLockstep", FleetQuiescentLockstep},
		{"FleetScale1k", FleetScale1k},
		{"FleetScale1kActive", FleetScale1kActive},
		{"FleetScale1kFaults", FleetScale1kFaults},
		{"FleetScale1kLockstep", FleetScale1kLockstep},
		{"FleetScale1kSteady", FleetScale1kSteady},
		{"FleetScale1kSteadyOff", FleetScale1kSteadyOff},
	}
}

// simSecond measures simulating one second (1000 ticks) of an 8-thread
// workload on the default machine (both clusters at max level) with
// ground-truth power accounting. Variants differ only in what setup attaches
// before the workload spawns (a daemon, a placer) and in stepped, which
// advances the machine by an explicit Step loop instead of Run, so it never
// enters a window.
func simSecond(b *testing.B, short string, stepped bool, setup func(m *sim.Machine)) {
	plat := hmp.Default()
	gt := power.DefaultGroundTruth(plat)
	m := sim.New(plat, sim.Config{Power: gt})
	if setup != nil {
		setup(m)
	}
	bench, ok := workload.ByShort(short)
	if !ok {
		b.Fatalf("unknown benchmark %q", short)
	}
	m.Spawn(bench.Name, bench.New(8), 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !stepped {
			m.Run(1 * sim.Second)
			continue
		}
		for end := m.Now() + sim.Second; m.Now() < end; {
			m.Step()
		}
	}
}

// SimSecond is the data-parallel (SW) simulator hot-path benchmark.
func SimSecond(b *testing.B) { simSecond(b, "SW", false, nil) }

// SimSecondStepped is SimSecond advanced tick by tick, the denominator of
// the tracked window speedup under the mask balancer.
func SimSecondStepped(b *testing.B) { simSecond(b, "SW", true, nil) }

// SimSecondPipeline is the pipeline (FE) variant: heavy block/unblock churn
// and migration traffic, the worst case for the incremental run queues.
func SimSecondPipeline(b *testing.B) { simSecond(b, "FE", false, nil) }

// SimSecondThermal is SimSecond with the closed thermal loop attached: the
// RC model integrates and the governor's zone logic runs every tick. The
// delta against SimSecond is the whole cost of closing the loop; SimSecond
// itself is the thermal-disabled path and must stay within the BENCH_2
// budget.
func SimSecondThermal(b *testing.B) {
	gov, err := thermal.NewGovernor(thermal.Spec{Enabled: true})
	if err != nil {
		b.Fatal(err)
	}
	simSecond(b, "SW", false, func(m *sim.Machine) { m.AddDaemon(gov) })
}

// setGTS installs the GTS placer over every core: the configuration of the
// paper's calibration and baseline runs.
func setGTS(m *sim.Machine) { m.SetPlacer(gts.New(m.Platform())) }

// SimSecondGTS is SimSecond under the GTS placer: the machine advances in
// the windows GTS certifies.
func SimSecondGTS(b *testing.B) { simSecond(b, "SW", false, setGTS) }

// SimSecondGTSStepped is SimSecondGTS advanced tick by tick, the
// denominator of the tracked GTS window speedup.
func SimSecondGTSStepped(b *testing.B) { simSecond(b, "SW", true, setGTS) }

// SearchEstimators builds the estimator fixture SearchExhaustive uses (the
// shared synthetic linear power model over the default platform).
func SearchEstimators() core.Estimators {
	plat := hmp.Default()
	return core.NewEstimators(plat, 8, power.SyntheticLinearModel(plat))
}

// SearchExhaustive measures one exhaustive GetNextSysState sweep
// (m = n = 4, d = 7), the per-adaptation cost of HARS-E.
func SearchExhaustive(b *testing.B) {
	est := SearchEstimators()
	plat := est.Perf.Plat
	cs := hmp.State{BigCores: 2, LittleCores: 2, BigLevel: 4, LittleLevel: 3}
	tgt := heartbeat.Target{Min: 1.8, Avg: 2.0, Max: 2.2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := core.Search(est, cs, 3.0, tgt, core.SearchParams{M: 4, N: 4, D: 7}, core.Unbounded(plat))
		if res.Explored == 0 {
			b.Fatal("no candidates")
		}
	}
}

// Assign measures the Table 3.1 assignment computation.
func Assign(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := core.Assign(8+i%8, 4, 4, 1.5)
		if a.TB+a.TL == 0 {
			b.Fatal("empty assignment")
		}
	}
}

// benchHost is the do-nothing fleet host for the quiescent benchmarks: no
// application ever arrives, so none of its methods is reachable. The
// FaultHost surface is likewise unreachable (the fault-armed benchmarks
// crash only idle nodes, which host no applications); it exists to satisfy
// the Config.Fault wiring check.
type benchHost struct{}

func (benchHost) Admit(*fleet.Node, *fleet.App) fleet.AdmitResult { return fleet.AdmitOK }
func (benchHost) Checkpoint(*fleet.Node, *fleet.App)              {}
func (benchHost) Snapshot(*fleet.Node, *fleet.App)                {}
func (benchHost) Salvage(*fleet.Node, *fleet.App)                 {}

// fleetScale measures advancing ten simulated seconds of a mostly-idle
// fleet — every node power-modeled but unmanaged, busy nodes each running
// an 8-thread workload spread evenly across the fleet, the fleet scheduler
// hooked at its default migration cadence. This is the production-scale
// shape the event-driven core exists for: wall-clock should track the busy
// nodes plus the decision points, not nodes × ticks. With faults armed the
// run crashes a band of idle nodes mid-flight and heals them later, so the
// detector deadlines, the down set, and the recovery wakes — every input
// of the scheduler's NextWake scan — are on the measured path. The
// lockstep variants pin the price of the reference strategy; the ratios
// are the tracked speedups.
func fleetScale(b *testing.B, nodes, busy int, faults, lockstep bool) {
	bench, ok := workload.ByShort("SW")
	if !ok {
		b.Fatal("unknown benchmark SW")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fnodes := make([]*fleet.Node, nodes)
		for id := 0; id < nodes; id++ {
			plat := hmp.Default()
			sn := sim.NewNode(id, "n", plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
			fnodes[id] = &fleet.Node{Node: sn}
		}
		f, err := fleet.New(fnodes...)
		if err != nil {
			b.Fatal(err)
		}
		f.SetLockstep(lockstep)
		cfg := fleet.Config{}
		if faults {
			cfg.Fault = &fault.Config{HeartbeatTimeout: 100 * sim.Millisecond}
		}
		fleet.NewScheduler(f, benchHost{}, cfg)
		for j := 0; j < busy; j++ {
			fnodes[j*nodes/busy].Spawn(bench.Name, bench.New(8), 10)
		}
		b.StartTimer()
		if faults {
			// Crash a band of idle nodes at 2 s, heal them at 6 s: the run
			// crosses silence, detection, down steady state, and recovery.
			f.RunUntil(2 * sim.Second)
			for id := nodes / 2; id < nodes/2+8 && id < nodes; id++ {
				fnodes[id].Fail()
			}
			f.RunUntil(6 * sim.Second)
			for id := nodes / 2; id < nodes/2+8 && id < nodes; id++ {
				fnodes[id].Heal()
			}
		}
		f.RunUntil(10 * sim.Second)
		if f.EnergyJ() <= 0 {
			b.Fatal("no energy accounted")
		}
	}
}

// fleetScaleSteady is the steady-phase shape: 1024 nodes, 51 of them busy,
// each busy node running a managed 8-thread workload under a HARS-E manager
// that adapts whenever the heartbeat rate leaves the band (a few times per
// simulated second at this target). Between completions, heartbeats, and
// adaptations every busy machine sits in a long certified steady phase —
// runnable set, placement, levels, and per-thread speeds all frozen — which
// is exactly what Machine.RunSteady turbo-executes. The steady=false twin
// adds a perTick daemon to every busy node, so the identical fleet runs its
// busy nodes through the general per-tick loop while the idle nodes still
// jump; the ratio is the tracked steady speedup (cmd/hars-bench
// -ratio-floor FleetScale1kSteadyOff/FleetScale1kSteady guards it).
func fleetScaleSteady(b *testing.B, steady bool) {
	const nodes, busy = 1024, 51
	bench, ok := workload.ByShort("SW")
	if !ok {
		b.Fatal("unknown benchmark SW")
	}
	tgt := heartbeat.Target{Min: 5.0, Avg: 6.0, Max: 7.0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fnodes := make([]*fleet.Node, nodes)
		for id := 0; id < nodes; id++ {
			plat := hmp.Default()
			sn := sim.NewNode(id, "n", plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
			fnodes[id] = &fleet.Node{Node: sn}
		}
		f, err := fleet.New(fnodes...)
		if err != nil {
			b.Fatal(err)
		}
		fleet.NewScheduler(f, benchHost{}, fleet.Config{})
		for j := 0; j < busy; j++ {
			n := fnodes[j*nodes/busy]
			p := n.Spawn(bench.Name, bench.New(8), 10)
			plat := n.Machine.Platform()
			set := core.NewEstimatorSet(plat, power.SyntheticLinearModel(plat))
			mgr := core.NewManager(n.Machine, p, set, tgt, core.Config{Version: core.HARSE, OverheadCPU: 4})
			n.Machine.AddDaemon(mgr)
			if !steady {
				n.Machine.AddDaemon(perTick{})
			}
		}
		b.StartTimer()
		f.RunUntil(10 * sim.Second)
		if f.EnergyJ() <= 0 {
			b.Fatal("no energy accounted")
		}
	}
}

// perTick is a no-op daemon outside the window contract (it does not
// implement sim.SteadyDaemon), so its machine steps every tick.
type perTick struct{}

func (perTick) Tick(*sim.Machine) {}

// FleetQuiescent is the event-driven core on the quiescent 128-node fleet.
func FleetQuiescent(b *testing.B) { fleetScale(b, 128, 1, false, false) }

// FleetQuiescentLockstep is the same fleet under the reference per-tick
// strategy — the denominator of the tracked speedup.
func FleetQuiescentLockstep(b *testing.B) { fleetScale(b, 128, 1, false, true) }

// FleetScale1k is the thousand-node shape: 1024 nodes, one busy.
func FleetScale1k(b *testing.B) { fleetScale(b, 1024, 1, false, false) }

// FleetScale1kActive loads ~5% of the 1024 nodes, the busiest shape the
// barrier-jumping claim is tracked at.
func FleetScale1kActive(b *testing.B) { fleetScale(b, 1024, 51, false, false) }

// FleetScale1kFaults is FleetScale1k with the failure detector armed and a
// scripted crash/heal band — the fault-armed barrier loop, NextWake's
// per-node scan included.
func FleetScale1kFaults(b *testing.B) { fleetScale(b, 1024, 1, true, false) }

// FleetScale1kLockstep is the 1024-node fleet under the reference per-tick
// strategy — the denominator of the scale speedup.
func FleetScale1kLockstep(b *testing.B) { fleetScale(b, 1024, 1, false, true) }

// FleetScale1kSteady is the managed-busy 1024-node fleet with the
// steady-phase turbo path on (the default everywhere).
func FleetScale1kSteady(b *testing.B) { fleetScaleSteady(b, true) }

// FleetScale1kSteadyOff is the same fleet with its busy nodes pinned to
// the general per-tick loop — the denominator of the steady speedup.
func FleetScale1kSteadyOff(b *testing.B) { fleetScaleSteady(b, false) }
