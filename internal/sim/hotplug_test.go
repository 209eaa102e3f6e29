package sim_test

import (
	"testing"

	"repro/internal/hmp"
	"repro/internal/sim"
)

// hotspin keeps n threads permanently busy.
type hotspin struct{ n int }

func (s *hotspin) Name() string    { return "spin" }
func (s *hotspin) NumThreads() int { return s.n }
func (s *hotspin) Start(p *sim.Process) {
	for i := 0; i < s.n; i++ {
		p.SetWork(i, 0.05)
	}
}
func (s *hotspin) UnitDone(p *sim.Process, local int)       { p.SetWork(local, 0.05) }
func (s *hotspin) SpeedFactor(int, hmp.ClusterKind) float64 { return 1 }

func TestSetCoreOnlineEvictsAndReplaces(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	p := m.Spawn("spin", &hotspin{n: 8}, 4)
	m.Run(100 * sim.Millisecond)

	victim := -1
	for _, th := range p.Threads {
		if th.Core() == 3 {
			victim = th.Local
		}
	}
	if victim < 0 {
		t.Fatal("no thread on cpu 3 after balancing 8 threads over 8 cores")
	}
	m.SetCoreOnline(3, false)
	if m.CoreOnline(3) || m.OnlineMask().Has(3) {
		t.Fatal("cpu 3 still reads online")
	}
	if m.OnlineCount(hmp.Little) != 3 || m.OnlineCount(hmp.Big) != 4 {
		t.Fatalf("online counts = %d/%d, want 3/4",
			m.OnlineCount(hmp.Little), m.OnlineCount(hmp.Big))
	}
	// Eviction is immediate: the victim is unplaced, the queue is empty.
	if c := p.Threads[victim].Core(); c != -1 {
		t.Fatalf("evicted thread still on core %d", c)
	}
	if m.RunQueueLen(3) != 0 {
		t.Fatal("offline core still has a run queue")
	}
	// One tick later the balancer has re-placed it on an online core.
	m.Run(sim.Millisecond)
	if c := p.Threads[victim].Core(); c < 0 || c == 3 {
		t.Fatalf("evicted thread not re-placed (core %d)", c)
	}
	busy := m.BusyTime(3)
	m.Run(500 * sim.Millisecond)
	if m.BusyTime(3) != busy {
		t.Fatal("offline core accumulated busy time")
	}
	for _, th := range p.Threads {
		if th.Core() == 3 {
			t.Fatal("thread placed on offline core")
		}
	}

	// Coming back online: the balancer spreads back out to one per core.
	m.SetCoreOnline(3, true)
	m.Run(100 * sim.Millisecond)
	if m.RunQueueLen(3) != 1 {
		t.Fatalf("cpu 3 run queue after return = %d, want 1", m.RunQueueLen(3))
	}
}

func TestOfflineAffinityStrandsUntilReturn(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	p := m.Spawn("spin", &hotspin{n: 1}, 4)
	p.SetAffinity(0, hmp.MaskOf(2))
	m.Run(10 * sim.Millisecond)
	if p.Threads[0].Core() != 2 {
		t.Fatal("pinned thread not on cpu 2")
	}
	m.SetCoreOnline(2, false)
	m.Run(100 * sim.Millisecond)
	// Whole affinity mask offline: the thread is runnable but unplaced and
	// makes no progress.
	if c := p.Threads[0].Core(); c != -1 {
		t.Fatalf("stranded thread on core %d, want -1", c)
	}
	work := p.WorkDone()
	m.Run(100 * sim.Millisecond)
	if p.WorkDone() != work {
		t.Fatal("stranded thread made progress")
	}
	m.SetCoreOnline(2, true)
	m.Run(10 * sim.Millisecond)
	if p.Threads[0].Core() != 2 {
		t.Fatal("thread not re-placed after its core returned")
	}
	if p.WorkDone() == work {
		t.Fatal("thread made no progress after its core returned")
	}
}

func TestSetLevelCapClamps(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	max := plat.Clusters[hmp.Big].MaxLevel()
	if m.LevelCap(hmp.Big) != max || m.Level(hmp.Big) != max {
		t.Fatal("machine does not start uncapped at max level")
	}
	m.SetLevelCap(hmp.Big, 4)
	if m.Level(hmp.Big) != 4 {
		t.Fatalf("level after capping = %d, want 4 (lowered immediately)", m.Level(hmp.Big))
	}
	m.SetLevel(hmp.Big, max) // actuation above the ceiling clamps
	if m.Level(hmp.Big) != 4 {
		t.Fatalf("SetLevel above cap yielded %d, want 4", m.Level(hmp.Big))
	}
	m.SetLevel(hmp.Big, 2) // below the ceiling passes through
	if m.Level(hmp.Big) != 2 {
		t.Fatalf("SetLevel below cap yielded %d, want 2", m.Level(hmp.Big))
	}
	m.SetLevelCap(hmp.Big, max) // restoring the cap does not move the level
	if m.Level(hmp.Big) != 2 || m.LevelCap(hmp.Big) != max {
		t.Fatalf("after uncapping: level %d cap %d, want 2 %d",
			m.Level(hmp.Big), m.LevelCap(hmp.Big), max)
	}
	m.SetLevelCap(hmp.Big, -5) // clamped to the grid
	if m.LevelCap(hmp.Big) != 0 || m.Level(hmp.Big) != 0 {
		t.Fatal("negative cap should clamp to level 0")
	}
}

func TestKillParksProcessForever(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	p := m.Spawn("spin", &hotspin{n: 4}, 4)
	p.WakeAt(0, 2*sim.Second, 1.0) // pending timer outlives the kill
	m.Run(500 * sim.Millisecond)
	if p.WorkDone() == 0 {
		t.Fatal("no progress before kill")
	}
	m.Kill(p)
	if !p.Exited() {
		t.Fatal("Exited() false after Kill")
	}
	work := p.WorkDone()
	m.Run(3 * sim.Second) // runs past the pending timer
	if p.WorkDone() != work {
		t.Fatal("killed process made progress")
	}
	for _, th := range p.Threads {
		if th.Runnable() {
			t.Fatalf("thread %d runnable after kill", th.Local)
		}
	}
	p.SetWork(0, 1.0) // late callbacks are dropped
	if p.Threads[0].Runnable() {
		t.Fatal("SetWork revived a killed process")
	}
	m.Kill(p) // idempotent
}

func TestMigrateToOfflinePanics(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	p := m.Spawn("spin", &hotspin{n: 1}, 4)
	m.Run(10 * sim.Millisecond)
	m.SetCoreOnline(7, false)
	defer func() {
		if recover() == nil {
			t.Error("Migrate to an offline core should panic")
		}
	}()
	m.Migrate(p.Threads[0], 7)
}

func TestChargeOverheadRedirectsFromOfflineCore(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	m.SetCoreOnline(0, false)
	m.ChargeOverhead(0, 100*sim.Microsecond)
	if m.Overhead() != 100*sim.Microsecond {
		t.Fatal("overhead lost")
	}
	m.Run(10 * sim.Millisecond)
	if m.BusyTime(0) != 0 {
		t.Fatal("offline core burned the charged overhead")
	}
	if m.BusyTime(1) == 0 {
		t.Fatal("overhead not redirected to the first online core")
	}
}
