package sim_test

import (
	"math"
	"testing"

	"repro/internal/hmp"
	"repro/internal/power"
	"repro/internal/sim"
)

// tickCounter is a daemon that does NOT implement sim.SteadyDaemon: it must
// force the machine into per-tick stepping, and counts the ticks to prove it
// ran.
type tickCounter struct{ n int }

func (d *tickCounter) Tick(*sim.Machine) { d.n++ }

// napper is a periodic sleeping daemon: it records the times it was invoked
// at while awake, and between its deadlines declares an empty window entry
// bounded by the next one.
type napper struct {
	period sim.Time
	next   sim.Time
	seen   []sim.Time
}

func (d *napper) Tick(m *sim.Machine) {
	if m.Now() < d.next {
		return
	}
	d.seen = append(d.seen, m.Now())
	d.next = m.Now() + d.period
}

func (d *napper) SteadyBegin(m *sim.Machine) (sim.SteadyEntry, bool) {
	if d.next <= m.Now() {
		return sim.SteadyEntry{}, false
	}
	return sim.SteadyEntry{Until: d.next}, true
}

// TestFastForwardMatchesStepping is the machine-level equivalence property:
// RunUntil (which jumps empty windows) must leave the machine bit-for-bit
// where an explicit per-tick Step loop leaves it — clock, energy (exact
// float bits, because FastForwardCached replays the memoized additions
// instead of multiplying), retired work, heartbeats, and timer deliveries.
func TestFastForwardMatchesStepping(t *testing.T) {
	build := func() (*sim.Machine, *sim.Process) {
		plat := hmp.Default()
		m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
		// Wakes at 200 ms via a timer, spins briefly, then goes idle again
		// each time a unit completes: plenty of inert stretches to jump.
		p := m.Spawn("s", &spinner{threads: 2, unit: 0.05, delay: 200 * sim.Millisecond, beats: true}, 4)
		return m, p
	}

	fast, fp := build()
	slow, sp := build()

	end := sim.Time(1 * sim.Second)
	fast.RunUntil(end)
	for slow.Now() < end {
		slow.Step()
	}

	if fast.Now() != slow.Now() {
		t.Fatalf("clocks diverged: %d != %d", fast.Now(), slow.Now())
	}
	if fb, sb := math.Float64bits(fast.EnergyJ()), math.Float64bits(slow.EnergyJ()); fb != sb {
		t.Fatalf("energy diverged: %x != %x (%v vs %v)", fb, sb, fast.EnergyJ(), slow.EnergyJ())
	}
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		if fast.ClusterEnergyJ(k) != slow.ClusterEnergyJ(k) {
			t.Fatalf("cluster %v energy diverged: %v != %v", k, fast.ClusterEnergyJ(k), slow.ClusterEnergyJ(k))
		}
	}
	if fp.WorkDone() != sp.WorkDone() {
		t.Fatalf("work diverged: %v != %v", fp.WorkDone(), sp.WorkDone())
	}
	if fp.HB.Count() != sp.HB.Count() {
		t.Fatalf("heartbeats diverged: %d != %d", fp.HB.Count(), sp.HB.Count())
	}
}

// TestInertUntilBounds pins the empty-window gate: a warm idle machine's
// window runs to the limit and the first pending timer bounds it. (The
// name predates SteadyUntil; TestSteadyUntilGates covers busy machines.)
func TestInertUntilBounds(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})

	// A cold machine has no warm energy memo: no window.
	if u := m.SteadyUntil(m.Now() + sim.Second); u != m.Now() {
		t.Fatalf("cold machine certified a window until %d", u)
	}
	m.Step() // warms the memo
	limit := m.Now() + sim.Second
	if u := m.SteadyUntil(limit); u != limit {
		t.Fatalf("warm idle machine's window ends at %d, want %d", u, limit)
	}

	// A pending timer bounds the window (WakeAt deadlines are absolute).
	m.Spawn("s", &spinner{threads: 1, unit: 0.1, delay: 300 * sim.Millisecond}, 4)
	wake := sim.Time(300 * sim.Millisecond)
	if u := m.SteadyUntil(limit); u != wake {
		t.Fatalf("timer-bounded window ends at %d, want %d", u, wake)
	}
}

// TestNonSleeperDaemonForcesLockstep pins the conservative default: a daemon
// that does not implement SteadyDaemon runs on every tick even across an
// otherwise-idle run, so RunUntil may not skip any.
func TestNonSleeperDaemonForcesLockstep(t *testing.T) {
	m := sim.New(hmp.Default(), sim.Config{})
	d := &tickCounter{}
	m.AddDaemon(d)
	m.RunUntil(100 * sim.Millisecond)
	if want := 100; d.n != want {
		t.Fatalf("non-window daemon ticked %d times, want %d", d.n, want)
	}
}

// TestSleeperDaemonWakesExactly pins the Until bound end to end: a periodic
// sleeper is invoked at exactly the ticks its deadlines name, with the idle
// time in between jumped, and the invocation times match the per-tick
// reference run.
func TestSleeperDaemonWakesExactly(t *testing.T) {
	run := func(step bool) []sim.Time {
		m := sim.New(hmp.Default(), sim.Config{})
		d := &napper{period: 70 * sim.Millisecond}
		m.AddDaemon(d)
		end := sim.Time(500 * sim.Millisecond)
		if step {
			for m.Now() < end {
				m.Step()
			}
		} else {
			m.RunUntil(end)
		}
		return d.seen
	}
	fast, slow := run(false), run(true)
	if len(fast) != len(slow) {
		t.Fatalf("wake counts diverged: %d != %d (%v vs %v)", len(fast), len(slow), fast, slow)
	}
	for i := range fast {
		if fast[i] != slow[i] {
			t.Fatalf("wake %d at %d, reference at %d", i, fast[i], slow[i])
		}
	}
	if len(fast) < 7 {
		t.Fatalf("expected ≥7 wakes over 500 ms at 70 ms period, got %d", len(fast))
	}
}
