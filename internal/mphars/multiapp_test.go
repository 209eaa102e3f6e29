package mphars

import (
	"math/rand"
	"testing"

	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/power"
	"repro/internal/sim"
)

// TestFourApplications exercises the linked-list runtime with four
// concurrent applications — one core of each cluster each — checking that
// partitioning invariants hold throughout and every application keeps
// making progress.
func TestFourApplications(t *testing.T) {
	plat := hmp.Default()
	gt := power.DefaultGroundTruth(plat)
	m := sim.New(plat, sim.Config{Power: gt})
	mgr := New(m, testSet(plat), Config{Version: MPHARSE})
	m.AddDaemon(mgr)

	names := []string{"a", "b", "c", "d"}
	units := []float64{0.4, 0.6, 0.8, 0.5}
	procs := make([]*sim.Process, len(names))
	for i, n := range names {
		prog := &steadyN{name: n, threads: 4, unit: units[i]}
		procs[i] = m.Spawn(n, prog, 10)
		mgr.Register(m, procs[i], heartbeat.Target{Min: 0.4, Avg: 0.6, Max: 0.8}, 1, 1)
	}
	if len(mgr.Apps()) != 4 {
		t.Fatalf("apps = %d", len(mgr.Apps()))
	}
	for i := 0; i < 90; i++ {
		m.Run(1 * sim.Second)
		if err := mgr.CheckInvariants(); err != nil {
			t.Fatalf("invariant broken at %ds: %v", i, err)
		}
	}
	for i, p := range procs {
		if p.HB.Count() == 0 {
			t.Errorf("app %s made no progress", names[i])
		}
		big, little := mgr.Allocation(p)
		if big+little == 0 {
			t.Errorf("app %s lost all cores", names[i])
		}
	}
}

// steadyN is a small barrier workload with a configurable thread count.
type steadyN struct {
	name    string
	threads int
	unit    float64
	pending int
}

func (s *steadyN) Name() string    { return s.name }
func (s *steadyN) NumThreads() int { return s.threads }
func (s *steadyN) Start(p *sim.Process) {
	s.pending = s.threads
	for i := 0; i < s.threads; i++ {
		p.SetWork(i, s.unit)
	}
}
func (s *steadyN) UnitDone(p *sim.Process, local int) {
	s.pending--
	if s.pending > 0 {
		return
	}
	p.Beat()
	s.pending = s.threads
	for i := 0; i < s.threads; i++ {
		p.SetWork(i, s.unit)
	}
}
func (s *steadyN) SpeedFactor(local int, k hmp.ClusterKind) float64 {
	if k == hmp.Big {
		return 1.5
	}
	return 1
}

// TestInvariantsUnderRandomTargets fuzzes the runtime: random registration
// order, thread counts, and target bands, checking the core-partitioning
// invariants after every simulated second.
func TestInvariantsUnderRandomTargets(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		plat := hmp.Default()
		m := sim.New(plat, sim.Config{})
		mgr := New(m, testSet(plat), Config{Version: MPHARSE, AdaptEvery: 5})
		m.AddDaemon(mgr)
		apps := 2 + rng.Intn(2)
		for i := 0; i < apps; i++ {
			prog := &steadyN{
				name:    string(rune('p' + i)),
				threads: 2 + rng.Intn(6),
				unit:    0.2 + rng.Float64()*0.8,
			}
			p := m.Spawn(prog.name, prog, 8)
			avg := 0.2 + rng.Float64()*3
			mgr.Register(m, p, heartbeat.Target{Min: avg * 0.9, Avg: avg, Max: avg * 1.1},
				1+rng.Intn(2), 1+rng.Intn(2))
		}
		for s := 0; s < 30; s++ {
			m.Run(1 * sim.Second)
			if err := mgr.CheckInvariants(); err != nil {
				t.Fatalf("seed %d: invariant broken at %ds: %v", seed, s, err)
			}
		}
	}
}
