package sim_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/mphars"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/thermal"
)

// busySteady builds a warm busy machine whose next stretch is certifiable:
// one long-unit spinner thread (nothing completes for a while), one general
// Step to warm the power memo and settle placement.
func busySteady(t *testing.T, daemons ...sim.Daemon) *sim.Machine {
	t.Helper()
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
	for _, d := range daemons {
		m.AddDaemon(d)
	}
	m.Spawn("s", &spinner{threads: 1, unit: 1e9}, 0)
	m.Step()
	return m
}

// TestSteadyUntilGates pins the conditions under which no window exists at
// all: a cold power memo declines, and a daemon outside the SteadyDaemon
// contract pins the machine to per-tick stepping. A warm machine, idle or
// busy, is certifiable to the caller's limit.
func TestSteadyUntilGates(t *testing.T) {
	plat := hmp.Default()

	// Idle and warm: a window with an empty plan, to the caller's limit.
	m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
	m.Step()
	if limit := m.Now() + sim.Second; m.SteadyUntil(limit) != limit {
		t.Fatalf("warm idle machine not certified to %d", limit)
	}

	// Busy but cold: the first tick after spawn must run through Step to
	// warm the energy memo.
	m = sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
	m.Spawn("s", &spinner{threads: 1, unit: 1e9}, 0)
	if u := m.SteadyUntil(m.Now() + sim.Second); u != m.Now() {
		t.Fatalf("cold busy machine certified steady until %d", u)
	}

	// Warm and busy: certifiable to the caller's limit.
	m.Step()
	limit := m.Now() + sim.Second
	if u := m.SteadyUntil(limit); u != limit {
		t.Fatalf("warm busy machine certified until %d, want %d", u, limit)
	}

	// A daemon outside the SteadyDaemon contract forces per-tick stepping.
	m2 := busySteady(t, &tickCounter{})
	if u := m2.SteadyUntil(m2.Now() + sim.Second); u != m2.Now() {
		t.Fatalf("non-steady daemon certified steady until %d", u)
	}
}

// TestSteadyBoundaryExact pins the window bound to the exact microsecond for
// each bounding source — the caller's limit, the first pending timer
// (tick-aligned and not), and a sleeping daemon's next wake (its declared
// Until). Off-by-one errors here would silently shift which tick runs
// through the general path.
func TestSteadyBoundaryExact(t *testing.T) {
	cases := []struct {
		name  string
		setup func(m *sim.Machine) // arms the bound; machine is warm+busy at 1 ms
		want  sim.Time             // expected SteadyUntil result
	}{
		{
			name:  "caller limit",
			setup: func(m *sim.Machine) {},
			want:  500 * sim.Millisecond,
		},
		{
			name: "timer on the tick grid",
			setup: func(m *sim.Machine) {
				m.Spawn("w", &spinner{threads: 1, unit: 0.01, delay: 200 * sim.Millisecond}, 0)
			},
			want: 200 * sim.Millisecond,
		},
		{
			name: "timer off the tick grid",
			setup: func(m *sim.Machine) {
				m.Spawn("w", &spinner{threads: 1, unit: 0.01, delay: 200*sim.Millisecond + 500}, 0)
			},
			want: 200*sim.Millisecond + 500,
		},
		{
			name: "sleeping daemon NextWake",
			// The napper was added before setup ran, so its first wake at
			// time 0 already happened during the warming Step; its next
			// deadline is the bound.
			want: 70 * sim.Millisecond,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var daemons []sim.Daemon
			if tc.setup == nil {
				daemons = append(daemons, &napper{period: 70 * sim.Millisecond})
			}
			m := busySteady(t, daemons...)
			if tc.setup != nil {
				tc.setup(m)
			}
			u := m.SteadyUntil(500 * sim.Millisecond)
			if u != tc.want {
				t.Fatalf("SteadyUntil = %d, want %d", u, tc.want)
			}
			// The certified window must actually advance to its bound (or
			// its tick-grid ceiling): nothing inside it may stop early.
			if !m.RunSteady(u) {
				t.Fatal("RunSteady advanced nothing inside a certified window")
			}
			tick := sim.Time(sim.Millisecond)
			wantNow := (u + tick - 1) / tick * tick
			if m.Now() != wantNow {
				t.Fatalf("after RunSteady now = %d, want %d", m.Now(), wantNow)
			}
		})
	}
}

// TestSteadyCompletionEdgeExact pins the heartbeat-window edge: RunSteady
// must stop exactly one tick before a unit completes, handing that tick —
// and only that tick — to the general path. The expected tick index comes
// from a per-tick reference run of the identical machine, so the test pins
// the off-by-one without hardcoding platform speed constants.
func TestSteadyCompletionEdgeExact(t *testing.T) {
	build := func() (*sim.Machine, *sim.Process) {
		plat := hmp.Default()
		m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
		p := m.Spawn("s", &spinner{threads: 1, unit: 2.0, beats: true}, 0)
		return m, p
	}

	// Reference: step until the first unit completes (the first heartbeat).
	ref, rp := build()
	for rp.HB.Count() == 0 {
		ref.Step()
		if ref.Now() > 10*sim.Second {
			t.Fatal("reference run never completed a unit")
		}
	}
	completionEnd := ref.Now() // end of the tick that completed the unit

	// Steady: after the warming tick, one certified window must advance to
	// exactly the completion tick's start, not into or past it.
	m, p := build()
	m.Step()
	limit := sim.Time(10 * sim.Second)
	u := m.SteadyUntil(limit)
	if u != limit {
		t.Fatalf("SteadyUntil = %d, want uncapped %d", u, limit)
	}
	if !m.RunSteady(u) {
		t.Fatal("RunSteady advanced nothing")
	}
	wantStop := completionEnd - sim.Time(sim.Millisecond)
	if m.Now() != wantStop {
		t.Fatalf("RunSteady stopped at %d, want %d (one tick before completion)", m.Now(), wantStop)
	}
	if p.HB.Count() != 0 {
		t.Fatal("steady window completed a unit; completions belong to the general path")
	}
	// The handed-over tick completes the unit on the general path.
	m.Step()
	if p.HB.Count() != 1 {
		t.Fatalf("general tick after the window did not complete the unit (beats=%d)", p.HB.Count())
	}
	if m.Now() != completionEnd {
		t.Fatalf("completion tick ended at %d, want %d", m.Now(), completionEnd)
	}
}

// TestSteadyGovernorEdgeExact pins the thermal-governor boundary: with a
// governor heating toward its throttle zone, the steady window must end
// exactly at the tick whose zone switch actuates a ceiling change — that
// tick runs through the general path, and the steady machine's cap history
// stays tick-identical to the reference.
func TestSteadyGovernorEdgeExact(t *testing.T) {
	spec := thermal.Spec{Enabled: true, TripC: 45, ThrottleC: 33, ReleaseC: 30}
	build := func() (*sim.Machine, *thermal.Governor) {
		plat := hmp.Default()
		m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
		gov, err := thermal.NewGovernor(spec)
		if err != nil {
			t.Fatal(err)
		}
		m.AddDaemon(gov)
		m.Spawn("s", &spinner{threads: 8, unit: 1e9}, 0)
		return m, gov
	}

	// Reference: step per tick to the first ceiling change.
	ref, _ := build()
	capAt := sim.Time(0)
	base := ref.LevelCap(hmp.Big)
	for ref.Now() < 10*sim.Second {
		ref.Step()
		if ref.LevelCap(hmp.Big) != base {
			capAt = ref.Now() // end of the actuating tick
			break
		}
	}
	if capAt == 0 {
		t.Fatal("governor never throttled; the fixture must heat into the throttle zone")
	}

	// Steady: windows must advance right up to the actuating tick and hand
	// it to the general path.
	m, gov := build()
	m.Step()
	limit := sim.Time(10 * sim.Second)
	for m.Now() < capAt-sim.Time(sim.Millisecond) {
		u := m.SteadyUntil(limit)
		if u <= m.Now() {
			m.Step()
			continue
		}
		if !m.RunSteady(u) {
			m.Step()
		}
		if m.Now() > capAt-sim.Time(sim.Millisecond) {
			t.Fatalf("steady advancement ran through the actuating tick: now %d, actuation at %d", m.Now(), capAt)
		}
	}
	if m.LevelCap(hmp.Big) != base {
		t.Fatal("ceiling changed before the actuating tick")
	}
	m.Step()
	if m.Now() != capAt || m.LevelCap(hmp.Big) == base {
		t.Fatalf("actuating tick: now %d cap %d, want actuation at %d", m.Now(), m.LevelCap(hmp.Big), capAt)
	}
	if g, r := gov.TempC(hmp.Big), spec.ThrottleC; g < r {
		t.Fatalf("throttle fired below the throttle zone: %.2f°C < %.2f°C", g, r)
	}
}

// TestSteadyMatchesStepping is the machine-level equivalence property for
// windows: RunUntil must leave each fixture bit-for-bit where the per-tick
// Step loop leaves it — clock, exact energy bits, retired work, heartbeats,
// overhead, temperatures, and governor counters — across a mid-run action
// (registering an app, spawning one, healing). The fixtures are a busy,
// thermally instrumented, heartbeat-emitting machine with a sleeping
// daemon, a machine whose threads nap between short units (so it turns
// idle right after ticks that ran work), and the machines with nothing
// runnable: an idle machine under an
// MP-HARS manager (a per-tick polling charge), an idle machine under a
// thermal governor (a per-tick Ticker), and crashed machines, bare and
// with an exited HARS manager and a cooling governor. Each fixture must be
// certifiable after its set-up.
func TestSteadyMatchesStepping(t *testing.T) {
	plat := hmp.Default()
	spec := thermal.Spec{Enabled: true, TripC: 45, ThrottleC: 33, ReleaseC: 30}
	newGov := func(t *testing.T, m *sim.Machine) *thermal.Governor {
		gov, err := thermal.NewGovernor(spec)
		if err != nil {
			t.Fatal(err)
		}
		m.AddDaemon(gov)
		return gov
	}
	type fixture struct {
		m   *sim.Machine
		gov *thermal.Governor
		act func() // applied at the mid-run instant on both machines, if set
	}
	cases := []struct {
		name  string
		build func(t *testing.T) fixture
	}{
		{"busy", func(t *testing.T) fixture {
			m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
			gov := newGov(t, m)
			m.AddDaemon(&napper{period: 70 * sim.Millisecond})
			m.Spawn("s", &spinner{threads: 4, unit: 0.3, beats: true}, 0)
			m.Step()
			return fixture{m: m, gov: gov}
		}},
		{"napping", func(t *testing.T) fixture {
			m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
			m.Spawn("s", &spinner{threads: 2, unit: 0.02, nap: 150 * sim.Millisecond, beats: true}, 0)
			m.Step()
			return fixture{m: m}
		}},
		{"idle mphars", func(t *testing.T) fixture {
			m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
			mgr := mphars.New(m, power.SyntheticLinearModel(plat), mphars.Config{})
			m.AddDaemon(mgr)
			// The first poll charge is stolen on the second tick, whose
			// power memo the window is then keyed on.
			m.Step()
			m.Step()
			return fixture{m: m, act: func() {
				p := m.Spawn("s", &spinner{threads: 2, unit: 0.3, beats: true}, 4)
				mgr.Register(m, p, heartbeat.Target{Min: 1, Avg: 2, Max: 3}, 1, 1)
			}}
		}},
		{"idle thermal", func(t *testing.T) fixture {
			m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
			gov := newGov(t, m)
			m.Step()
			return fixture{m: m, gov: gov, act: func() {
				m.Spawn("s", &spinner{threads: 8, unit: 1e9}, 0)
			}}
		}},
		{"crashed", func(t *testing.T) fixture {
			m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
			m.Spawn("s", &spinner{threads: 4, unit: 0.05}, 0)
			for i := 0; i < 50; i++ {
				m.Step()
			}
			m.Fail()
			return fixture{m: m, act: m.Heal}
		}},
		{"crashed managed", func(t *testing.T) fixture {
			m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
			gov := newGov(t, m)
			p := m.Spawn("s", &spinner{threads: 8, unit: 1e9}, 0)
			mgr := core.NewManager(m, p, power.SyntheticLinearModel(plat),
				heartbeat.Target{Min: 1, Avg: 2, Max: 3}, core.Config{Version: core.HARSE})
			m.AddDaemon(mgr)
			for i := 0; i < 3000; i++ {
				m.Step()
			}
			m.Fail()
			m.Step() // consumes the manager's last poll charge
			return fixture{m: m, gov: gov, act: m.Heal}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			probe := tc.build(t).m
			if u := probe.SteadyUntil(probe.Now() + sim.Second); u <= probe.Now() {
				t.Fatal("no window certified")
			}

			fast, slow := tc.build(t), tc.build(t)
			mid, end := fast.m.Now()+sim.Second, fast.m.Now()+2*sim.Second
			fast.m.RunUntil(mid)
			if fast.act != nil {
				fast.act()
			}
			fast.m.RunUntil(end)
			for slow.m.Now() < end {
				if slow.m.Now() == mid && slow.act != nil {
					slow.act()
				}
				slow.m.Step()
			}

			f, s := fast.m, slow.m
			if f.Now() != s.Now() {
				t.Fatalf("clocks diverged: %d != %d", f.Now(), s.Now())
			}
			if math.Float64bits(f.EnergyJ()) != math.Float64bits(s.EnergyJ()) {
				t.Fatalf("energy diverged: %v != %v", f.EnergyJ(), s.EnergyJ())
			}
			if f.Overhead() != s.Overhead() {
				t.Fatalf("overhead diverged: %d != %d", f.Overhead(), s.Overhead())
			}
			for i, fp := range f.Procs() {
				sp := s.Procs()[i]
				if math.Float64bits(fp.WorkDone()) != math.Float64bits(sp.WorkDone()) {
					t.Fatalf("process %d work diverged: %v != %v", i, fp.WorkDone(), sp.WorkDone())
				}
				if fp.HB.Count() != sp.HB.Count() {
					t.Fatalf("process %d heartbeats diverged: %d != %d", i, fp.HB.Count(), sp.HB.Count())
				}
			}
			for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
				if math.Float64bits(f.ClusterEnergyJ(k)) != math.Float64bits(s.ClusterEnergyJ(k)) {
					t.Fatalf("cluster %v energy diverged: %v != %v", k, f.ClusterEnergyJ(k), s.ClusterEnergyJ(k))
				}
				if f.LevelCap(k) != s.LevelCap(k) {
					t.Fatalf("cluster %v cap diverged: %d != %d", k, f.LevelCap(k), s.LevelCap(k))
				}
				if fast.gov == nil {
					continue
				}
				if math.Float64bits(fast.gov.TempC(k)) != math.Float64bits(slow.gov.TempC(k)) {
					t.Fatalf("cluster %v temperature diverged: %v != %v", k, fast.gov.TempC(k), slow.gov.TempC(k))
				}
				if math.Float64bits(fast.gov.PeakC(k)) != math.Float64bits(slow.gov.PeakC(k)) {
					t.Fatalf("cluster %v peak diverged: %v != %v", k, fast.gov.PeakC(k), slow.gov.PeakC(k))
				}
			}
			if fast.gov != nil {
				fg, sg := fast.gov, slow.gov
				if fg.Throttles() != sg.Throttles() || fg.Trips() != sg.Trips() || fg.Releases() != sg.Releases() {
					t.Fatalf("governor counters diverged: %d/%d/%d != %d/%d/%d",
						fg.Throttles(), fg.Trips(), fg.Releases(), sg.Throttles(), sg.Trips(), sg.Releases())
				}
			}
		})
	}
}
