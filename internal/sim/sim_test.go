package sim_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/hmp"
	"repro/internal/sim"
)

// spinner is a CPU-bound test program: every thread loops fixed-size units.
type spinner struct {
	threads int
	unit    float64
	big     float64 // big-cluster IPC factor (0 means 1.5)
	beats   bool    // emit a heartbeat per completed unit (thread 0 only)
	bonus   float64 // cache bonus, 0 = none
	delay   sim.Time
	nap     sim.Time // sleep between units, 0 = none
}

func (s *spinner) Name() string    { return "spinner" }
func (s *spinner) NumThreads() int { return s.threads }

func (s *spinner) Start(p *sim.Process) {
	for i := 0; i < s.threads; i++ {
		if s.delay > 0 {
			p.WakeAt(i, s.delay, s.unit)
		} else {
			p.SetWork(i, s.unit)
		}
	}
}

func (s *spinner) UnitDone(p *sim.Process, local int) {
	if s.beats && local == 0 {
		p.Beat()
	}
	if s.nap > 0 {
		p.WakeAt(local, p.Now()+s.nap, s.unit)
		return
	}
	p.SetWork(local, s.unit)
}

func (s *spinner) SpeedFactor(local int, k hmp.ClusterKind) float64 {
	if k == hmp.Big {
		if s.big == 0 {
			return 1.5
		}
		return s.big
	}
	return 1.0
}

func (s *spinner) CacheBonus() float64 { return s.bonus }

func newMachine(t *testing.T) *sim.Machine {
	t.Helper()
	return sim.New(hmp.Default(), sim.Config{})
}

func TestSingleThreadLittleBaseFreq(t *testing.T) {
	m := newMachine(t)
	m.SetLevel(hmp.Little, 0) // 800 MHz = f0 → speed 1.0 units/s
	p := m.Spawn("s", &spinner{threads: 1, unit: 0.1}, 4)
	p.SetAffinity(0, hmp.MaskOf(0))
	m.Run(10 * sim.Second)
	if got := p.WorkDone(); math.Abs(got-10) > 0.01 {
		t.Fatalf("WorkDone = %v, want ≈10", got)
	}
	if c := p.Threads[0].Core(); c != 0 {
		t.Errorf("thread core = %d, want 0", c)
	}
}

func TestFrequencyScaling(t *testing.T) {
	m := newMachine(t)
	// Little cluster at max (1.3 GHz): 1.625 units/s.
	p := m.Spawn("s", &spinner{threads: 1, unit: 0.1}, 4)
	p.SetAffinity(0, hmp.MaskOf(1))
	m.Run(10 * sim.Second)
	if got := p.WorkDone(); math.Abs(got-16.25) > 0.05 {
		t.Fatalf("WorkDone at 1.3GHz = %v, want ≈16.25", got)
	}
}

func TestBigCoreIPC(t *testing.T) {
	m := newMachine(t)
	// Big at max (1.6 GHz), IPC 1.5 → 3.0 units/s.
	p := m.Spawn("s", &spinner{threads: 1, unit: 0.1}, 4)
	p.SetAffinity(0, hmp.MaskOf(4))
	m.Run(10 * sim.Second)
	if got := p.WorkDone(); math.Abs(got-30) > 0.05 {
		t.Fatalf("WorkDone on big = %v, want ≈30", got)
	}
}

func TestCoreSharing(t *testing.T) {
	m := newMachine(t)
	m.SetLevel(hmp.Little, 0)
	p := m.Spawn("s", &spinner{threads: 2, unit: 0.05}, 4)
	p.SetAffinity(0, hmp.MaskOf(0))
	p.SetAffinity(1, hmp.MaskOf(0))
	m.Run(10 * sim.Second)
	// Two threads share one 1.0-unit/s core: 5 each.
	for i := 0; i < 2; i++ {
		if got := p.Threads[i].WorkDone(); math.Abs(got-5) > 0.1 {
			t.Errorf("thread %d WorkDone = %v, want ≈5", i, got)
		}
	}
	if u := m.Util(0); math.Abs(u-1.0) > 0.01 {
		t.Errorf("core 0 util = %v, want ≈1", u)
	}
	if u := m.Util(1); u > 0.01 {
		t.Errorf("core 1 util = %v, want ≈0", u)
	}
}

func TestMaskBalancerSpreads(t *testing.T) {
	m := newMachine(t)
	p := m.Spawn("s", &spinner{threads: 4, unit: 1}, 4)
	for i := 0; i < 4; i++ {
		p.SetAffinity(i, hmp.MaskOf(0, 1, 2, 3))
	}
	m.Run(100 * sim.Millisecond)
	for cpu := 0; cpu < 4; cpu++ {
		if n := m.RunQueueLen(cpu); n != 1 {
			t.Errorf("core %d run queue = %d, want 1", cpu, n)
		}
	}
	for cpu := 4; cpu < 8; cpu++ {
		if n := m.RunQueueLen(cpu); n != 0 {
			t.Errorf("big core %d run queue = %d, want 0", cpu, n)
		}
	}
}

func TestAffinityChangeMigrates(t *testing.T) {
	m := newMachine(t)
	p := m.Spawn("s", &spinner{threads: 1, unit: 0.05}, 4)
	p.SetAffinity(0, hmp.MaskOf(0))
	m.Run(1 * sim.Second)
	p.SetAffinity(0, hmp.MaskOf(7)) // cross-cluster move
	m.Run(1 * sim.Second)
	th := p.Threads[0]
	if th.Core() != 7 {
		t.Fatalf("thread core = %d, want 7", th.Core())
	}
	if th.Migrations() < 1 {
		t.Error("expected at least one migration")
	}
}

func TestWorkConservation(t *testing.T) {
	m := newMachine(t)
	m.SetLevel(hmp.Little, 0)
	m.SetLevel(hmp.Big, 0)
	// 3 CPU-bound threads on 2 little cores: total capacity 2 units/s.
	p := m.Spawn("s", &spinner{threads: 3, unit: 0.01}, 4)
	for i := 0; i < 3; i++ {
		p.SetAffinity(i, hmp.MaskOf(0, 1))
	}
	m.Run(10 * sim.Second)
	if got := p.WorkDone(); math.Abs(got-20) > 0.2 {
		t.Fatalf("total work = %v, want ≈20 (2 cores × 1 unit/s × 10 s)", got)
	}
	busy := m.BusyTime(0) + m.BusyTime(1)
	if math.Abs(float64(busy)-20e6) > 2e4 {
		t.Errorf("busy time = %v µs, want ≈20e6", busy)
	}
}

func TestTimersDelayStart(t *testing.T) {
	m := newMachine(t)
	p := m.Spawn("s", &spinner{threads: 1, unit: 0.1, delay: 5 * sim.Second}, 4)
	p.SetAffinity(0, hmp.MaskOf(4))
	m.Run(4 * sim.Second)
	if p.WorkDone() != 0 {
		t.Fatalf("work before wakeup = %v, want 0", p.WorkDone())
	}
	if p.Threads[0].Runnable() {
		t.Error("thread should be blocked before wakeup")
	}
	m.Run(6 * sim.Second) // now at t=10s; ran 5s at 3 units/s
	if got := p.WorkDone(); math.Abs(got-15) > 0.1 {
		t.Fatalf("work after wakeup = %v, want ≈15", got)
	}
}

func TestHeartbeats(t *testing.T) {
	m := newMachine(t)
	m.SetLevel(hmp.Little, 0)
	p := m.Spawn("s", &spinner{threads: 1, unit: 0.5, beats: true}, 4)
	p.SetAffinity(0, hmp.MaskOf(0))
	m.Run(10 * sim.Second)
	// 1 unit of 0.5 work at 1 unit/s → 2 beats/s → 20 beats.
	if n := p.HB.Count(); n < 19 || n > 21 {
		t.Fatalf("heartbeats = %d, want ≈20", n)
	}
	r, _ := p.HB.Latest()
	if math.Abs(r.WindowRate-2) > 0.05 {
		t.Errorf("window rate = %v, want ≈2", r.WindowRate)
	}
	if got := p.HB.RateOver(0, 10*sim.Second); math.Abs(got-2) > 0.05 {
		t.Errorf("RateOver = %v, want ≈2", got)
	}
}

func TestChargeOverheadStealsCapacity(t *testing.T) {
	m := newMachine(t)
	m.SetLevel(hmp.Little, 0)
	p := m.Spawn("s", &spinner{threads: 1, unit: 0.01}, 4)
	p.SetAffinity(0, hmp.MaskOf(0))
	// Charge 0.5 s of manager time against core 0 over the run.
	m.ChargeOverhead(0, 500*sim.Millisecond)
	m.Run(10 * sim.Second)
	if got := p.WorkDone(); math.Abs(got-9.5) > 0.1 {
		t.Fatalf("WorkDone = %v, want ≈9.5 (0.5 s stolen)", got)
	}
	if got := m.Overhead(); got != 500*sim.Millisecond {
		t.Errorf("Overhead = %v, want 0.5 s", got)
	}
	if got := m.OverheadUtil(); math.Abs(got-0.05) > 0.001 {
		t.Errorf("OverheadUtil = %v, want 0.05", got)
	}
}

func TestCacheBonus(t *testing.T) {
	// Two adjacent threads on the same cluster run (1+bonus)× faster.
	run := func(sameCluster bool) float64 {
		m := newMachine(t)
		m.SetLevel(hmp.Little, 0)
		m.SetLevel(hmp.Big, 0)
		p := m.Spawn("s", &spinner{threads: 2, unit: 0.05, big: 1.0, bonus: 0.2}, 4)
		p.SetAffinity(0, hmp.MaskOf(0))
		if sameCluster {
			p.SetAffinity(1, hmp.MaskOf(1))
		} else {
			p.SetAffinity(1, hmp.MaskOf(4))
		}
		m.Run(10 * sim.Second)
		return p.Threads[0].WorkDone()
	}
	together := run(true)
	apart := run(false)
	if math.Abs(together-12) > 0.2 {
		t.Errorf("co-located work = %v, want ≈12 (1.2 units/s)", together)
	}
	if math.Abs(apart-10) > 0.2 {
		t.Errorf("split work = %v, want ≈10", apart)
	}
}

type fakePower struct{ w float64 }

func (f fakePower) ClusterPower(k hmp.ClusterKind, level int, busy []float64) float64 {
	return f.w
}

func TestPowerIntegration(t *testing.T) {
	m := sim.New(hmp.Default(), sim.Config{Power: fakePower{w: 2}})
	m.Spawn("s", &spinner{threads: 1, unit: 1}, 4)
	m.Run(10 * sim.Second)
	// 2 W per cluster × 2 clusters × 10 s = 40 J.
	if got := m.EnergyJ(); math.Abs(got-40) > 0.01 {
		t.Fatalf("EnergyJ = %v, want 40", got)
	}
	if got := m.AvgPowerW(); math.Abs(got-4) > 0.01 {
		t.Fatalf("AvgPowerW = %v, want 4", got)
	}
	if got := m.ClusterEnergyJ(hmp.Big); math.Abs(got-20) > 0.01 {
		t.Fatalf("big ClusterEnergyJ = %v, want 20", got)
	}
}

func TestSetWorkValidation(t *testing.T) {
	m := newMachine(t)
	p := m.Spawn("s", &spinner{threads: 1, unit: 1}, 4)
	mustPanic(t, "SetWork(0)", func() { p.SetWork(0, 0) })
	mustPanic(t, "SetWork(-1)", func() { p.SetWork(0, -1) })
	mustPanic(t, "empty mask", func() { p.SetAffinity(0, 0) })
	mustPanic(t, "WakeAt(0)", func() { p.WakeAt(0, 1, 0) })
}

type zeroThreads struct{ *spinner }

func (zeroThreads) NumThreads() int { return 0 }

func TestSpawnValidation(t *testing.T) {
	m := newMachine(t)
	mustPanic(t, "zero threads", func() { m.Spawn("z", zeroThreads{&spinner{}}, 4) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestAccessors(t *testing.T) {
	m := newMachine(t)
	p := m.Spawn("app", &spinner{threads: 2, unit: 1}, 4)
	if m.Platform().TotalCores() != 8 {
		t.Error("Platform accessor wrong")
	}
	if len(m.Procs()) != 1 || m.Procs()[0] != p {
		t.Error("Procs accessor wrong")
	}
	if len(m.Threads()) != 2 {
		t.Error("Threads accessor wrong")
	}
	if p.Machine() != m {
		t.Error("Process.Machine wrong")
	}
	if p.Program().Name() != "spinner" {
		t.Error("Process.Program wrong")
	}
	if !strings.Contains(p.Name, "app") {
		t.Error("process name wrong")
	}
	m.SetLevel(hmp.Big, 3)
	if m.Level(hmp.Big) != 3 {
		t.Error("SetLevel/Level round trip failed")
	}
	m.SetLevel(hmp.Big, 99)
	if m.Level(hmp.Big) != hmp.Default().Clusters[hmp.Big].MaxLevel() {
		t.Error("SetLevel should clamp")
	}
	if p.Blocked(0) {
		t.Error("spinner threads should be runnable")
	}
	p.Block(0)
	if !p.Blocked(0) || p.Threads[0].Runnable() {
		t.Error("Block wrong")
	}
}

func TestMigrationPenaltyCostsTime(t *testing.T) {
	// A thread forced to ping-pong across clusters every tick loses
	// throughput to migration stalls.
	m := sim.New(hmp.Default(), sim.Config{})
	m.SetLevel(hmp.Little, 0)
	m.SetLevel(hmp.Big, 0)
	p := m.Spawn("s", &spinner{threads: 1, unit: 0.001, big: 1.0}, 4)
	p.SetAffinity(0, hmp.MaskOf(0))
	flip := false
	for i := 0; i < 2000; i++ {
		m.Step()
		flip = !flip
		if flip {
			p.SetAffinity(0, hmp.MaskOf(4))
		} else {
			p.SetAffinity(0, hmp.MaskOf(0))
		}
	}
	// 2 s elapsed at 1 unit/s nominal, but every tick starts with the
	// 300 µs cross-cluster stall, so only 70% of it does work.
	got := p.WorkDone()
	if want := 2 * (1 - 300.0/1000); math.Abs(got-want) > 0.01 {
		t.Fatalf("WorkDone = %v, want %v: each tick pays the 300 µs cross-cluster migration stall", got, want)
	}
	if p.Threads[0].Migrations() < 1000 {
		t.Errorf("migrations = %d, want ≈2000", p.Threads[0].Migrations())
	}
}

func TestRunUntil(t *testing.T) {
	m := newMachine(t)
	m.Spawn("s", &spinner{threads: 1, unit: 1}, 4)
	m.RunUntil(123 * sim.Millisecond)
	if m.Now() != 123*sim.Millisecond {
		t.Fatalf("Now = %v, want 123 ms", m.Now())
	}
	if sim.Seconds(m.Now()) != 0.123 {
		t.Errorf("Seconds = %v", sim.Seconds(m.Now()))
	}
}
