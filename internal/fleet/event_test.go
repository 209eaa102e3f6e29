package fleet_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/hmp"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestDownNodeScoresNegInf pins the down-node scoring fix: every built-in
// policy scores a detector-declared-down node as -Inf, so it can never win
// a comparison against any live node — however attractive its raw load,
// capacity, or temperature would make it.
func TestDownNodeScoresNegInf(t *testing.T) {
	cost := sim.CheckpointCost{Freeze: 10 * sim.Millisecond}
	live := newMPNode(0, "live", tinyPlatform())
	down := newMPNode(1, "down", hmp.Default()) // bigger, idle: the raw winner
	if _, err := fleet.New(live, down); err != nil {
		t.Fatal(err)
	}
	down.SetDown(true)
	app := &fleet.App{Name: "a", SLO: &fleet.SLO{TargetHPS: 10, SlackMS: 100}}
	for _, p := range fleet.Policies(cost) {
		if got := p.Score(down, app); !math.IsInf(got, -1) {
			t.Errorf("%s scored the down node %v, want -Inf", p.Name(), got)
		}
		if ds, ls := p.Score(down, app), p.Score(live, app); ds >= ls {
			t.Errorf("%s prefers the down node: %v >= %v", p.Name(), ds, ls)
		}
	}
	down.SetDown(false)
	for _, p := range fleet.Policies(cost) {
		if got := p.Score(down, app); math.IsInf(got, -1) {
			t.Errorf("%s still scores the healed node -Inf", p.Name())
		}
	}
}

// TestDownNodeNeverDestination pins the candidate paths end to end: an
// arrival never admits to a down node, and a migration off a saturated node
// never lands on one — even when the down node is by far the most
// attractive candidate and would win every raw score comparison.
func TestDownNodeNeverDestination(t *testing.T) {
	src := newMPNode(0, "src", tinyPlatform())
	attractive := newMPNode(1, "attractive", hmp.Default())
	// Three-quarters of the big node: enough free cores to take both the
	// second arrival and the migration victim, but a clear raw-score loser
	// to the attractive (down) node under big-first.
	half := hmp.Default()
	half.Clusters[hmp.Big].Cores = 3
	half.Clusters[hmp.Little].Cores = 3
	modest := newMPNode(2, "modest", half)
	f, err := fleet.New(src, attractive, modest)
	if err != nil {
		t.Fatal(err)
	}
	host := &testHost{t: t}
	s := fleet.NewScheduler(f, host, fleet.Config{Policy: mustPolicy(t, fleet.PolicyBigFirst)})
	attractive.SetDown(true)

	// a0 saturates the tiny source node.
	a0 := &fleet.App{Name: "a0", Pinned: src}
	s.Arrive(a0)
	if a0.Node() != src {
		t.Fatalf("pinned arrival on %q, want %q", a0.Node().Name, src.Name)
	}

	// Admission: with src saturated, big-first would pick the big idle
	// node — but it is down, so the arrival must land on the modest one.
	a1 := &fleet.App{Name: "a1"}
	s.Arrive(a1)
	if a1.Node() != modest {
		t.Fatalf("arrival admitted to %q, want %q", a1.Node().Name, modest.Name)
	}

	// Migration: unpinned, a0 must move off the saturated source to the
	// modest live node, never the attractive down one.
	a0.Pinned = nil
	f.RunUntil(1200 * sim.Millisecond)
	checkInv(t, s)
	if a0.Node() == attractive {
		t.Fatal("migration landed on the down node")
	}
	if a0.Node() != modest {
		t.Fatalf("app on %q, want migrated to %q", a0.Node().Name, modest.Name)
	}
}

// TestPolicyCostInjection pins the registry fix: the checkpoint-cost model
// is injected at the registry boundary, so every consumer of Policies /
// PolicyByName gets an SLO-aware policy that prices migrations — nobody has
// to remember to patch the entry afterwards.
func TestPolicyCostInjection(t *testing.T) {
	cost := sim.CheckpointCost{Freeze: 123 * sim.Millisecond, PerMB: sim.Millisecond, SizeMB: 7}
	p, err := fleet.PolicyByName(fleet.PolicySLOAware, cost)
	if err != nil {
		t.Fatal(err)
	}
	if sa := p.(*fleet.SLOAware); sa.Cost != cost {
		t.Fatalf("PolicyByName cost = %+v, want %+v", sa.Cost, cost)
	}
	var found bool
	for _, p := range fleet.Policies(cost) {
		if sa, ok := p.(*fleet.SLOAware); ok {
			found = true
			if sa.Cost != cost {
				t.Fatalf("Policies cost = %+v, want %+v", sa.Cost, cost)
			}
		}
	}
	if !found {
		t.Fatal("no SLO-aware entry in the registry")
	}
}

// TestEventCoreMatchesLockstepFleet is the fleet-level equivalence
// property: the same three-phase arrival schedule replayed through the
// lockstep reference and the event-driven core produces identical energy
// (exact float bits), heartbeats, migrations, and clocks.
func TestEventCoreMatchesLockstepFleet(t *testing.T) {
	type outcome struct {
		energy     uint64
		beats      int64
		migrations int
		now        sim.Time
	}
	run := func(lockstep bool) outcome {
		n0 := newMPNode(0, "n0", hmp.Default())
		n1 := newMPNode(1, "n1", tinyPlatform())
		// An unmanaged time-shared node: its machine has no per-tick
		// daemons, so the event core fast-forwards it between decisions.
		plat := hmp.Default()
		sn := sim.NewNode(2, "idle", plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
		n2 := &fleet.Node{Node: sn}
		f, err := fleet.New(n0, n1, n2)
		if err != nil {
			t.Fatal(err)
		}
		f.SetLockstep(lockstep)
		host := &testHost{t: t}
		s := fleet.NewScheduler(f, host, fleet.Config{Policy: mustPolicy(t, fleet.PolicyBigFirst)})
		a0 := &fleet.App{Name: "a0", Pinned: n0}
		a1 := &fleet.App{Name: "a1", Pinned: n1}
		s.Arrive(a0)
		f.RunUntil(500 * sim.Millisecond)
		s.Arrive(a1)
		f.RunUntil(1 * sim.Second)
		a1.Pinned = nil // the tiny node is saturated: a1 migrates off it
		f.RunUntil(2500 * sim.Millisecond)
		checkInv(t, s)
		var beats int64
		for _, app := range s.Apps() {
			if app.Proc != nil {
				beats += app.Proc.HB.Count()
			}
		}
		return outcome{math.Float64bits(f.EnergyJ()), beats, s.Stats().Migrations, f.Now()}
	}
	ref := run(true)
	if ref.migrations == 0 {
		t.Fatal("fixture produced no migrations; the equivalence check is vacuous")
	}
	if got := run(false); got != ref {
		t.Fatalf("event core diverged: %+v != %+v", got, ref)
	}
}

// faultTestHost extends testHost with the FaultHost surface. The fixtures
// using it run no applications, so the crash-recovery hooks are never
// reached; they exist to satisfy the Config.Fault wiring check.
type faultTestHost struct{ testHost }

func (h *faultTestHost) Snapshot(n *fleet.Node, app *fleet.App) {}
func (h *faultTestHost) Salvage(n *fleet.Node, app *fleet.App)  {}

// barrierCounter counts fleet hook invocations without ever asking to run:
// with it registered, every Tick the fleet takes was forced by some OTHER
// wake source, so the count exposes exactly how often the scheduler's
// NextWake fires. Registered after the scheduler, it also logs every
// detector verdict change at the barrier that made it, so the log pins the
// tick of each detection and recovery.
type barrierCounter struct {
	ticks    int
	down     []bool
	verdicts []string
}

func (h *barrierCounter) Tick(f *fleet.Fleet) {
	h.ticks++
	if h.down == nil {
		h.down = make([]bool, len(f.Nodes()))
	}
	for i, n := range f.Nodes() {
		if n.Down() != h.down[i] {
			h.down[i] = n.Down()
			h.verdicts = append(h.verdicts, fmt.Sprintf("t=%d node %d down=%v", f.Now(), i, n.Down()))
		}
	}
}

func (h *barrierCounter) NextWake(*fleet.Fleet) sim.Time {
	return sim.Time(math.MaxInt64)
}

// TestHealWakeDoesNotCollapseJumping pins the recovery-wake fix: a node
// proving alive while still declared down wakes the scheduler immediately
// (`!failed && down` → now), and that immediate wake must cost O(1) ticks
// per heal — not collapse barrier jumping into per-tick lockstep for the
// rest of the run, stranding the unrelated nodes in slow motion. Each
// schedule replays in lockstep to prove the event-core clock, energy bits,
// and the tick of every detector verdict are identical. The staggered case
// keeps several nodes silent at once, so NextWake must take the minimum
// over their detection deadlines, and heals them out of crash order.
func TestHealWakeDoesNotCollapseJumping(t *testing.T) {
	const ms = sim.Millisecond
	// action fails (or heals) one node at a clock time.
	type action struct {
		at   sim.Time
		node int
		fail bool
	}
	cases := []struct {
		name    string
		nodes   int
		actions []action // in time order
	}{
		{"one-crash", 4, []action{{1000 * ms, 2, true}, {2000 * ms, 2, false}}},
		// Crashes 25–35 ms apart under a 100 ms timeout: every silent
		// window overlaps the next, and no two nodes heal in crash order.
		{"staggered", 16, []action{
			{1000 * ms, 3, true}, {1030 * ms, 9, true}, {1055 * ms, 14, true},
			{1090 * ms, 0, true}, {1120 * ms, 6, true},
			{1500 * ms, 14, false}, {1620 * ms, 3, false}, {1700 * ms, 6, false},
			{1810 * ms, 0, false}, {1990 * ms, 9, false},
		}},
	}
	type outcome struct {
		energy    uint64
		now       sim.Time
		recovered int
		verdicts  string
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(lockstep bool) (outcome, int) {
				nodes := make([]*fleet.Node, tc.nodes)
				for i := range nodes {
					plat := hmp.Default()
					sn := sim.NewNode(i, fmt.Sprintf("n%d", i), plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
					nodes[i] = &fleet.Node{Node: sn}
				}
				f, err := fleet.New(nodes...)
				if err != nil {
					t.Fatal(err)
				}
				f.SetLockstep(lockstep)
				host := &faultTestHost{testHost{t: t}}
				s := fleet.NewScheduler(f, host, fleet.Config{
					Fault: &fault.Config{HeartbeatTimeout: 100 * ms},
				})
				ctr := &barrierCounter{}
				f.AddHook(ctr)

				for _, a := range tc.actions {
					f.RunUntil(a.at)
					if a.fail {
						nodes[a.node].Fail() // silent: declared down after the timeout
					} else {
						nodes[a.node].Heal() // alive while declared down: immediate wake, one-tick recovery
					}
				}
				f.RunUntil(3 * sim.Second)
				out := outcome{math.Float64bits(f.EnergyJ()), f.Now(), s.Stats().Recovered,
					strings.Join(ctr.verdicts, "\n")}
				return out, ctr.ticks
			}

			ref, lockstepTicks := run(true)
			if want := len(tc.actions); strings.Count(ref.verdicts, "down=") != want {
				t.Fatalf("lockstep logged verdicts\n%s\nwant %d (a detection per crash, a recovery per heal)", ref.verdicts, want)
			}
			got, eventTicks := run(false)
			if got != ref {
				t.Fatalf("event core diverged:\n%+v\n!=\n%+v", got, ref)
			}
			// Lockstep pays one hook invocation per tick. The event core
			// must stay within the barrier budget: the migrate cadence plus
			// a handful of extra barriers per crash for its deadline, its
			// detection tick, and its heal — orders of magnitude below
			// per-tick.
			if eventTicks >= lockstepTicks/10 {
				t.Fatalf("heal wake collapsed barrier jumping: %d event barriers vs %d lockstep ticks",
					eventTicks, lockstepTicks)
			}
		})
	}
}

// burster alternates a short unit of work on each thread with a timed
// sleep, beating on every unit, so its node is idle most ticks but not all.
type burster struct{ period sim.Time }

func (b *burster) Name() string    { return "burster" }
func (b *burster) NumThreads() int { return 2 }
func (b *burster) Start(p *sim.Process) {
	for i := 0; i < b.NumThreads(); i++ {
		p.SetWork(i, 0.02)
	}
}
func (b *burster) UnitDone(p *sim.Process, local int) {
	p.Beat()
	p.WakeAt(local, p.Now()+b.period, 0.02)
}
func (b *burster) SpeedFactor(int, hmp.ClusterKind) float64 { return 1 }

// stepCounter declares every Tick a no-op window entry and counts the Tick
// calls it actually receives, exposing how many ticks its machine stepped
// instead of jumping. The count, which no comparison reads, is the only
// state it keeps.
type stepCounter struct{ n int }

func (c *stepCounter) Tick(*sim.Machine) { c.n++ }
func (c *stepCounter) SteadyBegin(*sim.Machine) (sim.SteadyEntry, bool) {
	return sim.SteadyEntry{}, true
}

// nodeState renders what a node's run left behind: its clock and energy
// bits, and for every process it has run, in spawn order, whether it
// exited, the index and time of each beat, and each thread's migration count
// and core.
func nodeState(n *fleet.Node) string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d energy=%x\n", n.Now(), math.Float64bits(n.EnergyJ()))
	for _, p := range n.Procs() {
		fmt.Fprintf(&b, "proc %s exited=%v\n", p.Name, p.Exited())
		for _, r := range p.HB.Records() {
			fmt.Fprintf(&b, "beat %d t=%d\n", r.Index, r.Time)
		}
		for _, th := range p.Threads {
			fmt.Fprintf(&b, "thread %d migrations=%d core=%d\n", th.Local, th.Migrations(), th.Core())
		}
	}
	return b.String()
}

// TestNodeStateMatchesLockstep runs three nodes through the event core and
// the lockstep reference: a node that sleeps between short bursts (one of
// its threads re-pinned to a big core halfway, so it migrates), an idle
// node, and a busy node that crashes and heals. Each node must end with the
// reference's state (nodeState: clock, energy bits, every beat, every
// thread's migrations and core), and the idle node must have stepped
// almost none of its ticks.
func TestNodeStateMatchesLockstep(t *testing.T) {
	type outcome struct {
		now    sim.Time
		states []string
		steps  int
		busy   *sim.Process
		healed bool
	}
	run := func(lockstep bool) outcome {
		nodes := make([]*fleet.Node, 3)
		for i := range nodes {
			plat := hmp.Default()
			sn := sim.NewNode(i, string(rune('a'+i)), plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
			nodes[i] = &fleet.Node{Node: sn}
		}
		f, err := fleet.New(nodes...)
		if err != nil {
			t.Fatal(err)
		}
		f.SetLockstep(lockstep)
		ctr := &stepCounter{}
		nodes[1].AddDaemon(ctr)
		burst := nodes[0].Spawn("burst", &burster{period: 150 * sim.Millisecond}, 4)
		b, _ := workload.ByShort("SW")
		busy := nodes[2].Spawn("busy", b.New(4), 10)

		f.RunUntil(400 * sim.Millisecond)
		nodes[2].Fail()
		f.RunUntil(1200 * sim.Millisecond)
		nodes[2].Heal()
		burst.SetAffinity(0, hmp.MaskOf(4))
		f.RunUntil(2 * sim.Second)

		out := outcome{now: f.Now(), steps: ctr.n, busy: busy, healed: !nodes[2].Failed()}
		for _, n := range nodes {
			out.states = append(out.states, nodeState(n))
		}
		return out
	}

	ref, got := run(true), run(false)
	if got.now != ref.now {
		t.Fatalf("clocks diverged: %d != %d", got.now, ref.now)
	}
	for i := range ref.states {
		if got.states[i] == ref.states[i] {
			continue
		}
		g, r := strings.Split(got.states[i], "\n"), strings.Split(ref.states[i], "\n")
		for j := 0; j < min(len(g), len(r)); j++ {
			if g[j] != r[j] {
				t.Fatalf("node %d diverged at line %d: %q != %q", i, j, g[j], r[j])
			}
		}
		t.Fatalf("node %d state lengths diverged: %d != %d lines", i, len(g), len(r))
	}
	all := strings.Join(ref.states, "")
	if !strings.Contains(all, "beat ") {
		t.Fatal("fixture beat no heartbeat; the state check is weak")
	}
	if strings.Count(all, "migrations=0 ") == strings.Count(all, "migrations=") {
		t.Fatal("fixture migrated no thread; the state check is weak")
	}
	if !ref.busy.Exited() || !ref.healed {
		t.Fatalf("busy node did not crash and heal (busy exited %v, healed %v)", ref.busy.Exited(), ref.healed)
	}
	if got.steps >= ref.steps/100 {
		t.Fatalf("idle node stepped %d of %d ticks: its windows did not run", got.steps, ref.steps)
	}
}
