package sim_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gts"
	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/mphars"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
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
// Step loop leaves it — clock, exact energy bits, every core's exact busy
// time, every thread's exact remaining and retired work and RanLastTick,
// heartbeats, overhead, temperatures, and governor counters — across a
// mid-run action (registering an app, spawning one, healing). The fixtures
// are a busy, thermally instrumented, heartbeat-emitting machine with a
// sleeping daemon, a machine whose threads nap between short units (so it
// turns idle right after ticks that ran work), the machines with nothing
// runnable: an idle machine under an MP-HARS manager (a per-tick polling
// charge), an idle machine under a thermal governor (a per-tick Ticker),
// and crashed machines, bare and with an exited HARS manager and a cooling
// governor; and three long ones run for 20 s: eight threads on
// 1e9-unit work (no unit completes, so the windows run to the fixture's
// limits and busy time, retired work and energy cross binades inside
// single windows), the SW benchmark under the mask balancer, and SW under
// GTS with a thermal governor that must throttle, so that two tickers
// bound each window. Each fixture must be certifiable after its set-up. On the SW fixtures at least 90% of the accumulator ticks the
// windows advanced must have been jumped rather than added one by one, so
// that a jump an over-strict guard has silently disabled fails here too.
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
	spawnSW := func(t *testing.T, m *sim.Machine) {
		b, ok := workload.ByShort("SW")
		if !ok {
			t.Fatal("no SW benchmark")
		}
		m.Spawn(b.Name, b.New(8), 10)
	}
	type fixture struct {
		m   *sim.Machine
		gov *thermal.Governor
		act func() // applied at the mid-run instant on both machines, if set
	}
	cases := []struct {
		name      string
		span      sim.Time // run length, 2 s when zero
		jumped    bool     // assert the jumped share
		throttles bool     // assert the governor throttled
		build     func(t *testing.T) fixture
	}{
		{name: "busy", build: func(t *testing.T) fixture {
			m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
			gov := newGov(t, m)
			m.AddDaemon(&napper{period: 70 * sim.Millisecond})
			m.Spawn("s", &spinner{threads: 4, unit: 0.3, beats: true}, 0)
			m.Step()
			return fixture{m: m, gov: gov}
		}},
		{name: "napping", build: func(t *testing.T) fixture {
			m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
			m.Spawn("s", &spinner{threads: 2, unit: 0.02, nap: 150 * sim.Millisecond, beats: true}, 0)
			m.Step()
			return fixture{m: m}
		}},
		{name: "idle mphars", build: func(t *testing.T) fixture {
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
		{name: "idle thermal", build: func(t *testing.T) fixture {
			m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
			gov := newGov(t, m)
			m.Step()
			return fixture{m: m, gov: gov, act: func() {
				m.Spawn("s", &spinner{threads: 8, unit: 1e9}, 0)
			}}
		}},
		{name: "crashed", build: func(t *testing.T) fixture {
			m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
			m.Spawn("s", &spinner{threads: 4, unit: 0.05}, 0)
			for i := 0; i < 50; i++ {
				m.Step()
			}
			m.Fail()
			return fixture{m: m, act: m.Heal}
		}},
		{name: "crashed managed", build: func(t *testing.T) fixture {
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
		{name: "long window", span: 20 * sim.Second, build: func(t *testing.T) fixture {
			m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
			m.Spawn("s", &spinner{threads: 8, unit: 1e9}, 0)
			m.Step()
			return fixture{m: m}
		}},
		{name: "SW", span: 20 * sim.Second, jumped: true, build: func(t *testing.T) fixture {
			m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
			spawnSW(t, m)
			m.Step()
			return fixture{m: m}
		}},
		{name: "SW gts thermal", span: 20 * sim.Second, jumped: true, throttles: true, build: func(t *testing.T) fixture {
			m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
			m.SetPlacer(gts.New(plat))
			gov := newGov(t, m)
			spawnSW(t, m)
			m.Step()
			return fixture{m: m, gov: gov}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			probe := tc.build(t).m
			if u := probe.SteadyUntil(probe.Now() + sim.Second); u <= probe.Now() {
				t.Fatal("no window certified")
			}

			span := tc.span
			if span == 0 {
				span = 2 * sim.Second
			}
			fast, slow := tc.build(t), tc.build(t)
			mid, end := fast.m.Now()+span/2, fast.m.Now()+span
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
			compareMachines(t, fast.m, slow.m)
			if fast.gov != nil {
				compareGovernors(t, fast.gov, slow.gov)
			}
			if tc.throttles && fast.gov.Throttles() == 0 {
				t.Fatal("the governor never throttled; the fixture must heat into the throttle zone")
			}
			ticks, cost := fast.m.JumpStats()
			t.Logf("windows jumped %d of %d accumulator ticks", ticks-cost, ticks)
			if tc.jumped {
				if ticks == 0 || float64(ticks-cost) < 0.9*float64(ticks) {
					t.Fatalf("windows jumped %d of %d accumulator ticks, want at least 90%%", ticks-cost, ticks)
				}
			}
		})
	}
}

// compareMachines fails the test at the first field on which the windowed
// machine f differs from the stepped machine s.
func compareMachines(t *testing.T, f, s *sim.Machine) {
	t.Helper()
	if f.Now() != s.Now() {
		t.Fatalf("clocks diverged: %d != %d", f.Now(), s.Now())
	}
	if math.Float64bits(f.EnergyJ()) != math.Float64bits(s.EnergyJ()) {
		t.Fatalf("energy diverged: %v != %v", f.EnergyJ(), s.EnergyJ())
	}
	if f.Overhead() != s.Overhead() {
		t.Fatalf("overhead diverged: %d != %d", f.Overhead(), s.Overhead())
	}
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		if math.Float64bits(f.ClusterEnergyJ(k)) != math.Float64bits(s.ClusterEnergyJ(k)) {
			t.Fatalf("cluster %v energy diverged: %v != %v", k, f.ClusterEnergyJ(k), s.ClusterEnergyJ(k))
		}
		if f.LevelCap(k) != s.LevelCap(k) {
			t.Fatalf("cluster %v cap diverged: %d != %d", k, f.LevelCap(k), s.LevelCap(k))
		}
	}
	for cpu := 0; cpu < s.Platform().TotalCores(); cpu++ {
		if math.Float64bits(f.BusyUS(cpu)) != math.Float64bits(s.BusyUS(cpu)) {
			t.Fatalf("cpu %d busy diverged: %v != %v", cpu, f.BusyUS(cpu), s.BusyUS(cpu))
		}
	}
	for i, sp := range s.Procs() {
		fp := f.Procs()[i]
		if math.Float64bits(fp.WorkDone()) != math.Float64bits(sp.WorkDone()) {
			t.Fatalf("process %d work diverged: %v != %v", i, fp.WorkDone(), sp.WorkDone())
		}
		if fp.HB.Count() != sp.HB.Count() {
			t.Fatalf("process %d heartbeats diverged: %d != %d", i, fp.HB.Count(), sp.HB.Count())
		}
	}
	for i, st := range s.Threads() {
		ft := f.Threads()[i]
		switch {
		case ft.RanLastTick() != st.RanLastTick():
			t.Fatalf("thread %d RanLastTick diverged: %v != %v", i, ft.RanLastTick(), st.RanLastTick())
		case math.Float64bits(ft.WorkDone()) != math.Float64bits(st.WorkDone()):
			t.Fatalf("thread %d work diverged: %v != %v", i, ft.WorkDone(), st.WorkDone())
		case math.Float64bits(ft.Remaining()) != math.Float64bits(st.Remaining()):
			t.Fatalf("thread %d remaining diverged: %v != %v", i, ft.Remaining(), st.Remaining())
		}
	}
}

// compareGovernors fails the test at the first field on which the windowed
// machine's governor f differs from the stepped machine's s.
func compareGovernors(t *testing.T, f, s *thermal.Governor) {
	t.Helper()
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		if math.Float64bits(f.TempC(k)) != math.Float64bits(s.TempC(k)) {
			t.Fatalf("cluster %v temperature diverged: %v != %v", k, f.TempC(k), s.TempC(k))
		}
		if math.Float64bits(f.PeakC(k)) != math.Float64bits(s.PeakC(k)) {
			t.Fatalf("cluster %v peak diverged: %v != %v", k, f.PeakC(k), s.PeakC(k))
		}
	}
	if f.Throttles() != s.Throttles() || f.Trips() != s.Trips() || f.Releases() != s.Releases() {
		t.Fatalf("governor counters diverged: %d/%d/%d != %d/%d/%d",
			f.Throttles(), f.Trips(), f.Releases(), s.Throttles(), s.Trips(), s.Releases())
	}
}

// TestWindowReentry pins what re-entering a window costs: the Steps a
// machine takes per window it runs, over 10 simulated seconds after a 2 s
// warm-up. A window that stops before a known edge (a unit completing)
// steps that tick and re-certifies, and a certification vetoed only by the
// power memo retries after one tick, so a SW machine under the mask
// balancer takes about two Steps per window and the FE pipeline about
// three; blind 4-tick back-offs at every edge took about 4.9 and 6.3. The
// bounds sit about halfway between.
func TestWindowReentry(t *testing.T) {
	for _, tc := range []struct {
		short string
		max   float64
	}{
		{short: "SW", max: 3.4},
		{short: "FE", max: 4.6},
	} {
		t.Run(tc.short, func(t *testing.T) {
			plat := hmp.Default()
			m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
			b, ok := workload.ByShort(tc.short)
			if !ok {
				t.Fatalf("no %s benchmark", tc.short)
			}
			m.Spawn(b.Name, b.New(8), 10)
			m.RunUntil(2 * sim.Second)
			steps0, windows0 := m.RunStats()
			m.RunUntil(12 * sim.Second)
			steps, windows := m.RunStats()
			steps, windows = steps-steps0, windows-windows0
			per := float64(steps) / float64(windows)
			t.Logf("%d Steps, %d windows: %.2f Steps per window", steps, windows, per)
			if windows == 0 || per > tc.max {
				t.Fatalf("%d Steps over %d windows, want at most %.1f per window", steps, windows, tc.max)
			}
		})
	}
}
