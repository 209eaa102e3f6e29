package gts_test

import (
	"math"
	"testing"

	"repro/internal/gts"
	"repro/internal/hmp"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

// countingPlacer wraps a GTS scheduler and counts the Place calls the
// machine makes, so a test can tell the ticks its windows skipped from the
// ticks it stepped.
type countingPlacer struct {
	*gts.Scheduler
	places int
}

func (c *countingPlacer) Place(m *sim.Machine) {
	c.places++
	c.Scheduler.Place(m)
}

// gtsFixture is one GTS-placed machine set-up; at lists the hotplug actions
// applied (to both machines) at the start of the chunk that begins at
// their time.
type gtsFixture struct {
	name  string
	build func(t *testing.T, short string) (*sim.Machine, *countingPlacer)
	at    map[sim.Time]func(m *sim.Machine)
}

func gtsFixtures() []gtsFixture {
	spawn := func(t *testing.T, m *sim.Machine, short string, threads int) {
		t.Helper()
		b, ok := workload.ByShort(short)
		if !ok {
			t.Fatalf("unknown benchmark %q", short)
		}
		m.Spawn(b.Name, b.New(threads), 10)
	}
	machine := func(plat *hmp.Platform) (*sim.Machine, *countingPlacer) {
		m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
		g := &countingPlacer{Scheduler: gts.New(plat)}
		m.SetPlacer(g)
		return m, g
	}
	return []gtsFixture{
		{name: "default max state", build: func(t *testing.T, short string) (*sim.Machine, *countingPlacer) {
			m, g := machine(hmp.Default())
			spawn(t, m, short, 8)
			return m, g
		}},
		{name: "2 big + 6 little", build: func(t *testing.T, short string) (*sim.Machine, *countingPlacer) {
			plat := hmp.Default()
			plat.Clusters[hmp.Big].Cores = 2
			plat.Clusters[hmp.Little].Cores = 6
			m, g := machine(plat)
			spawn(t, m, short, 8)
			return m, g
		}},
		{name: "static-optimal cpuset", build: func(t *testing.T, short string) (*sim.Machine, *countingPlacer) {
			plat := hmp.Default()
			m, g := machine(plat)
			m.SetLevel(hmp.Big, 3)
			m.SetLevel(hmp.Little, 2)
			g.SetAllowed(hmp.MaskOf(plat.CPU(hmp.Little, 0), plat.CPU(hmp.Little, 1), plat.CPU(hmp.Big, 0)))
			spawn(t, m, short, 8)
			return m, g
		}},
		{
			name: "two apps, big core hotplug",
			build: func(t *testing.T, short string) (*sim.Machine, *countingPlacer) {
				m, g := machine(hmp.Default())
				spawn(t, m, short, 4)
				spawn(t, m, short, 4)
				return m, g
			},
			at: map[sim.Time]func(m *sim.Machine){
				2 * sim.Second: func(m *sim.Machine) { m.SetCoreOnline(6, false) },
				4 * sim.Second: func(m *sim.Machine) { m.SetCoreOnline(6, true) },
			},
		},
		{
			name: "crash and heal",
			build: func(t *testing.T, short string) (*sim.Machine, *countingPlacer) {
				m, g := machine(hmp.Default())
				spawn(t, m, short, 8)
				return m, g
			},
			at: map[sim.Time]func(m *sim.Machine){
				2 * sim.Second: func(m *sim.Machine) { m.Fail() },
				4 * sim.Second: func(m *sim.Machine) { m.Heal() },
			},
		},
	}
}

// TestGTSSteadyMatchesStepping is the window-equivalence property for the
// GTS placer: RunUntil, which advances GTS-placed machines in certified
// windows, must leave each fixture bit-for-bit where an explicit Step loop
// leaves it, compared after every 137 ms chunk — clock, energy bits,
// per-core busy time, overhead, heartbeats, and for every thread its core,
// RanLastTick, exact work and remaining bits, migrations, and GTS load
// average. The fixtures (every paper benchmark on each) are the default
// board at max state (the calibration and baseline runs), a 2 big + 6
// little board, a static-optimal style cpuset of two little cores and one
// big core at lowered levels (the SO oracle probes), two 4-thread
// applications with a big core hotplugged off at 2 s and back at 4 s, and
// a machine that crashes at 2 s (killing its application, whose threads'
// loads then decay on a machine with no online core) and heals at 4 s. So
// that the property cannot hold vacuously, the windowed machine must have
// called Place on fewer than half of its ticks, except for the pipeline
// benchmark (FE), whose threads block too often for long windows.
func TestGTSSteadyMatchesStepping(t *testing.T) {
	const (
		end   = 12 * sim.Second
		chunk = 137 * sim.Millisecond
	)
	for _, fx := range gtsFixtures() {
		for _, short := range workload.Shorts() {
			t.Run(fx.name+"/"+short, func(t *testing.T) {
				fast, fg := fx.build(t, short)
				slow, sg := fx.build(t, short)
				for now := sim.Time(0); now < end; {
					if act := fx.at[now]; act != nil {
						act(fast)
						act(slow)
					}
					to := min(now+chunk, end)
					for at := range fx.at {
						if at > now && at < to {
							to = at
						}
					}
					fast.RunUntil(to)
					for slow.Now() < to {
						slow.Step()
					}
					compareGTSMachines(t, fast, slow, fg.Scheduler, sg.Scheduler)
					now = to
				}
				ticks := int(end / fast.TickLen())
				if sg.places != ticks {
					t.Fatalf("stepped machine placed %d times in %d ticks", sg.places, ticks)
				}
				if short != "FE" && fg.places >= ticks/2 {
					t.Fatalf("windowed machine placed on %d of %d ticks; windows should cover most of them", fg.places, ticks)
				}
			})
		}
	}
}

// compareGTSMachines fails the test at the first field on which the
// windowed machine f differs from the stepped machine s.
func compareGTSMachines(t *testing.T, f, s *sim.Machine, fg, sg *gts.Scheduler) {
	t.Helper()
	if f.Now() != s.Now() {
		t.Fatalf("clocks diverged: %d != %d", f.Now(), s.Now())
	}
	at := s.Now()
	if math.Float64bits(f.EnergyJ()) != math.Float64bits(s.EnergyJ()) {
		t.Fatalf("t=%d: energy diverged: %v != %v", at, f.EnergyJ(), s.EnergyJ())
	}
	if f.Overhead() != s.Overhead() {
		t.Fatalf("t=%d: overhead diverged: %d != %d", at, f.Overhead(), s.Overhead())
	}
	for cpu := 0; cpu < s.Platform().TotalCores(); cpu++ {
		if f.BusyTime(cpu) != s.BusyTime(cpu) {
			t.Fatalf("t=%d: cpu %d busy diverged: %d != %d", at, cpu, f.BusyTime(cpu), s.BusyTime(cpu))
		}
	}
	for i, sp := range s.Procs() {
		if fb, sb := f.Procs()[i].HB.Count(), sp.HB.Count(); fb != sb {
			t.Fatalf("t=%d: process %d heartbeats diverged: %d != %d", at, i, fb, sb)
		}
	}
	for i, st := range s.Threads() {
		ft := f.Threads()[i]
		switch {
		case ft.Core() != st.Core():
			t.Fatalf("t=%d: thread %d core diverged: %d != %d", at, i, ft.Core(), st.Core())
		case ft.RanLastTick() != st.RanLastTick():
			t.Fatalf("t=%d: thread %d RanLastTick diverged: %v != %v", at, i, ft.RanLastTick(), st.RanLastTick())
		case math.Float64bits(ft.WorkDone()) != math.Float64bits(st.WorkDone()):
			t.Fatalf("t=%d: thread %d work diverged: %v != %v", at, i, ft.WorkDone(), st.WorkDone())
		case math.Float64bits(ft.Remaining()) != math.Float64bits(st.Remaining()):
			t.Fatalf("t=%d: thread %d remaining diverged: %v != %v", at, i, ft.Remaining(), st.Remaining())
		case ft.Migrations() != st.Migrations():
			t.Fatalf("t=%d: thread %d migrations diverged: %d != %d", at, i, ft.Migrations(), st.Migrations())
		case math.Float64bits(fg.Load(ft)) != math.Float64bits(sg.Load(st)):
			t.Fatalf("t=%d: thread %d load diverged: %v != %v", at, i, fg.Load(ft), sg.Load(st))
		}
	}
}
