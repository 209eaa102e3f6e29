package fleet_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/mphars"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// tinyPlatform returns a deliberately small board (1 big + 1 little core)
// so a single 1+1 registration saturates the partition.
func tinyPlatform() *hmp.Platform {
	p := hmp.Default()
	p.Clusters[hmp.Big].Cores = 1
	p.Clusters[hmp.Little].Cores = 1
	return p
}

// newMPNode builds a fleet node running an MP-HARS manager over plat.
func newMPNode(id int, name string, plat *hmp.Platform) *fleet.Node {
	sn := sim.NewNode(id, name, plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
	mp := mphars.New(sn.Machine, core.NewEstimatorSet(plat, power.SyntheticLinearModel(plat)), mphars.Config{})
	sn.AddDaemon(mp)
	return &fleet.Node{Node: sn, MP: mp}
}

// testHost admits applications as 4-thread SW instances, registering them
// with the node's MP-HARS manager when it has one. Migration is
// work-conserving: Checkpoint captures the incarnation's run state and a
// later Admit restores it on the destination. initAlloc, when set, chooses
// the (big, little) registration allocation per app name; moveTimes logs
// when each app was admitted after a checkpoint.
type testHost struct {
	t         *testing.T
	admits    int
	evicts    int
	evicted   []*sim.Process
	snaps     map[string]*sim.ProcSnapshot
	initAlloc func(name string, moved bool) (int, int)
	moveTimes map[string][]sim.Time
}

func (h *testHost) Admit(n *fleet.Node, app *fleet.App) fleet.AdmitResult {
	var p *sim.Process
	moved := false
	if snap := h.snaps[app.Name]; snap != nil {
		p = n.Restore(snap, 0)
		delete(h.snaps, app.Name)
		moved = true
		if h.moveTimes == nil {
			h.moveTimes = make(map[string][]sim.Time)
		}
		h.moveTimes[app.Name] = append(h.moveTimes[app.Name], n.Now())
	} else {
		b, _ := workload.ByShort("SW")
		p = n.Spawn(app.Name, b.New(4), 10)
	}
	if n.MP != nil {
		big, little := 1, 1
		if h.initAlloc != nil {
			big, little = h.initAlloc(app.Name, moved)
		}
		n.MP.Register(n.Machine, p, heartbeat.Target{Min: 1, Avg: 2, Max: 3}, big, little)
	}
	app.Proc = p
	h.admits++
	return fleet.AdmitOK
}

func (h *testHost) Checkpoint(n *fleet.Node, app *fleet.App) {
	if n.MP != nil {
		n.MP.Unregister(n.Machine, app.Proc)
	}
	if h.snaps == nil {
		h.snaps = make(map[string]*sim.ProcSnapshot)
	}
	h.evicted = append(h.evicted, app.Proc)
	h.snaps[app.Name] = n.Checkpoint(app.Proc)
	app.Proc = nil
	h.evicts++
}

func checkInv(t *testing.T, s *fleet.Scheduler) {
	t.Helper()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestQueueAdmission pins the admission-control contract: an arrival with
// no free partition queues instead of vanishing, and it is admitted on the
// tick a departure frees the cores.
func TestQueueAdmission(t *testing.T) {
	n0 := newMPNode(0, "n0", tinyPlatform())
	f, err := fleet.New(n0)
	if err != nil {
		t.Fatal(err)
	}
	host := &testHost{t: t}
	s := fleet.NewScheduler(f, host, fleet.Config{})

	a0 := &fleet.App{Name: "a0"}
	a1 := &fleet.App{Name: "a1"}
	s.Arrive(a0)
	if !a0.Placed() || a0.Node() != n0 {
		t.Fatalf("a0 not placed on the only node")
	}
	s.Arrive(a1)
	if !a1.Queued() || !a1.EverQueued() {
		t.Fatalf("a1 should queue on the saturated node, state: placed=%v", a1.Placed())
	}
	checkInv(t, s)
	if st := s.Stats(); st.Queued != 1 || st.QueueLen != 1 || st.Admitted != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// While saturated, the queue must not drain.
	f.RunUntil(100 * sim.Millisecond)
	if !a1.Queued() {
		t.Fatal("a1 admitted while the partition was full")
	}

	// Departure frees the cores; the next tick's drain admits a1.
	n0.MP.Unregister(n0.Machine, a0.Proc)
	n0.Kill(a0.Proc)
	s.Depart(a0)
	f.RunUntil(f.Now() + 2*sim.Millisecond)
	if !a1.Placed() || a1.Node() != n0 {
		t.Fatalf("a1 not admitted after departure (queued=%v)", a1.Queued())
	}
	checkInv(t, s)
	if st := s.Stats(); st.QueueLen != 0 || st.Admitted != 2 {
		t.Fatalf("stats after admit = %+v", st)
	}
}

// TestQueueFIFO pins the no-queue-jumping contract: a new arrival that
// coincides with freed capacity must not overtake an app already waiting.
func TestQueueFIFO(t *testing.T) {
	n0 := newMPNode(0, "n0", tinyPlatform())
	f, err := fleet.New(n0)
	if err != nil {
		t.Fatal(err)
	}
	host := &testHost{t: t}
	s := fleet.NewScheduler(f, host, fleet.Config{})

	a0 := &fleet.App{Name: "a0"}
	a1 := &fleet.App{Name: "a1"}
	s.Arrive(a0) // takes the whole 1+1 partition
	s.Arrive(a1) // queues
	if !a1.Queued() {
		t.Fatal("a1 should be queued")
	}
	// Free the partition and, in the same instant, bring a third arrival:
	// the queued a1 has first claim.
	n0.MP.Unregister(n0.Machine, a0.Proc)
	n0.Kill(a0.Proc)
	s.Depart(a0)
	a2 := &fleet.App{Name: "a2"}
	s.Arrive(a2)
	if !a1.Placed() {
		t.Fatal("queued a1 was overtaken by the coinciding arrival")
	}
	if !a2.Queued() {
		t.Fatal("a2 should queue behind a1's claim")
	}
	checkInv(t, s)
}

// TestMigrationConservation pins saturation-driven migration: an app moves
// off a saturated node to the free one, exactly once per cooldown, and the
// app is never registered on two nodes.
func TestMigrationConservation(t *testing.T) {
	n0 := newMPNode(0, "small", tinyPlatform())
	n1 := newMPNode(1, "big", hmp.Default())
	f, err := fleet.New(n0, n1)
	if err != nil {
		t.Fatal(err)
	}
	host := &testHost{t: t}
	// big-first would admit to n1 straight away; pin the arrival to the
	// tiny node so it saturates, then let migration move it.
	s := fleet.NewScheduler(f, host, fleet.Config{Policy: mustPolicy(t, fleet.PolicyBigFirst)})

	a0 := &fleet.App{Name: "a0", Pinned: n0}
	s.Arrive(a0)
	if a0.Node() != n0 {
		t.Fatal("pinned arrival not on its node")
	}
	// Pinned apps never migrate: run past the cooldown and check.
	f.RunUntil(600 * sim.Millisecond)
	if a0.Node() != n0 || a0.Migrations() != 0 {
		t.Fatalf("pinned app moved: node=%s migrations=%d", a0.Node().Name, a0.Migrations())
	}

	// An unpinned app on the saturated node does migrate.
	a0.Pinned = nil
	f.RunUntil(1200 * sim.Millisecond)
	if a0.Node() != n1 {
		t.Fatalf("app not migrated off the saturated node (on %s)", a0.Node().Name)
	}
	if a0.Migrations() != 1 || s.Stats().Migrations != 1 {
		t.Fatalf("migrations = %d (stats %d), want 1", a0.Migrations(), s.Stats().Migrations)
	}
	checkInv(t, s)
	// Conservation: the old incarnation is dead on n0, the new one lives
	// on n1, and n0's partition is fully free again.
	if len(host.evicted) != 1 || !host.evicted[0].Exited() {
		t.Fatal("old incarnation not killed")
	}
	if a0.Proc == nil || a0.Proc.Machine() != n1.Machine {
		t.Fatal("new incarnation not on the destination machine")
	}
	if free := n0.FreeCores(hmp.Big) + n0.FreeCores(hmp.Little); free != 2 {
		t.Fatalf("source node kept %d cores", 2-free)
	}
	// Work conservation: the restored incarnation carries the heartbeat
	// monitor (history intact) and the banked work of the old one, and
	// keeps making progress from there.
	if a0.Proc.HB != host.evicted[0].HB {
		t.Fatal("heartbeat monitor was not moved across the migration")
	}
	moveWork := a0.Proc.WorkDone()
	if moveWork <= 0 {
		t.Fatal("work was not carried across the migration")
	}
	f.RunUntil(2 * sim.Second)
	if a0.Proc.WorkDone() <= moveWork {
		t.Fatal("no progress after the work-conserving move")
	}
}

// TestMigrationCooldownNoConsecutivePingPong pins the ping-pong fix: the
// placement cooldown is strict, so an application moved in one migrate
// pass is never moved again in the very next pass — even when saturation
// and free capacity shift underneath it so that the scores would otherwise
// send it straight back. Two moves of the same app are always at least two
// migration periods apart.
func TestMigrationCooldownNoConsecutivePingPong(t *testing.T) {
	n0 := newMPNode(0, "n0", hmp.Default())
	n1 := newMPNode(1, "n1", hmp.Default())
	f, err := fleet.New(n0, n1)
	if err != nil {
		t.Fatal(err)
	}
	host := &testHost{t: t, initAlloc: func(name string, moved bool) (int, int) {
		if name == "filler" {
			return 3, 3
		}
		return 1, 1
	}}
	s := fleet.NewScheduler(f, host, fleet.Config{})

	// x lands first (least-loaded ties to n0), then the pinned filler
	// saturates n0 around it; x is the only migration victim.
	filler := &fleet.App{Name: "filler", Pinned: n0}
	x := &fleet.App{Name: "x"}
	s.Arrive(x)
	s.Arrive(filler)
	if x.Node() != n0 || n0.CanAdmit() {
		t.Fatalf("setup: x on %q, n0 admittable %v", x.Node().Name, n0.CanAdmit())
	}

	// Pass at 250 ms: x still cooling from its arrival placement. Pass at
	// 500 ms: x moves to the empty n1.
	f.RunUntil(600 * sim.Millisecond)
	if got := host.moveTimes["x"]; len(got) != 1 || got[0] != 500*sim.Millisecond {
		t.Fatalf("first move times = %v, want [500ms]", got)
	}

	// Shift the world under it: saturate n1 (a direct registration outside
	// the scheduler) and empty n0, so the very next pass would send x
	// straight back if the cooldown did not hold it.
	b, _ := workload.ByShort("SW")
	fp := n1.Spawn("direct-filler", b.New(4), 10)
	n1.MP.Register(n1.Machine, fp, heartbeat.Target{Min: 1, Avg: 2, Max: 3}, 3, 3)
	n0.MP.Unregister(n0.Machine, filler.Proc)
	n0.Kill(filler.Proc)
	s.Depart(filler)
	checkInv(t, s)

	f.RunUntil(1500 * sim.Millisecond)
	moves := host.moveTimes["x"]
	if len(moves) != 2 {
		t.Fatalf("moves = %v, want exactly 2", moves)
	}
	// The bounce happened — but at 1000 ms, not at the 750 ms pass
	// immediately after the first move.
	if got := moves[1] - moves[0]; got != 500*sim.Millisecond {
		t.Fatalf("consecutive moves %v apart, want 2 migration periods", got)
	}
	checkInv(t, s)
}

// TestQueueFIFOMultiFree pins admission-queue fairness across every
// placement policy: when several partitions free up in the same tick,
// queued arrivals are admitted strictly in arrival order — the earliest
// waiters take the freed capacity and the latest keeps waiting.
func TestQueueFIFOMultiFree(t *testing.T) {
	for _, policy := range fleet.Policies(sim.CheckpointCost{}) {
		n0 := newMPNode(0, "n0", tinyPlatform())
		n1 := newMPNode(1, "n1", tinyPlatform())
		f, err := fleet.New(n0, n1)
		if err != nil {
			t.Fatal(err)
		}
		host := &testHost{t: t}
		s := fleet.NewScheduler(f, host, fleet.Config{Policy: policy})

		slo := &fleet.SLO{TargetHPS: 2, SlackMS: 100}
		o0 := &fleet.App{Name: "o0", Pinned: n0}
		o1 := &fleet.App{Name: "o1", Pinned: n1}
		s.Arrive(o0)
		s.Arrive(o1)
		queued := []*fleet.App{
			{Name: "q0", SLO: slo}, {Name: "q1", SLO: slo}, {Name: "q2", SLO: slo},
		}
		for _, q := range queued {
			s.Arrive(q)
			if !q.Queued() {
				t.Fatalf("%s: %s admitted onto a saturated fleet", policy.Name(), q.Name)
			}
		}
		// Both occupants depart in the same instant; the next tick's drain
		// sees two free partitions at once.
		for _, o := range []*fleet.App{o0, o1} {
			o.Node().MP.Unregister(o.Node().Machine, o.Proc)
			o.Node().Kill(o.Proc)
			s.Depart(o)
		}
		f.Step()
		if !queued[0].Placed() || !queued[1].Placed() {
			t.Fatalf("%s: earliest waiters not admitted: q0=%v q1=%v",
				policy.Name(), queued[0].Placed(), queued[1].Placed())
		}
		if !queued[2].Queued() {
			t.Fatalf("%s: q2 overtook an earlier waiter", policy.Name())
		}
		if queued[0].Node() == queued[1].Node() {
			t.Fatalf("%s: both waiters admitted to %q", policy.Name(), queued[0].Node().Name)
		}
		checkInv(t, s)
	}
}

// TestSLOAwarePolicy pins the SLO-aware placement policy: arrivals land on
// the node with the most predicted capacity for their target (where
// least-loaded would tie-break to the weak node), DVFS-capped nodes
// predict less, and the checkpoint-cost model discounts migration
// destinations against the app's slack budget.
func TestSLOAwarePolicy(t *testing.T) {
	weak := newMPNode(0, "weak", tinyPlatform())
	strong := newMPNode(1, "strong", hmp.Default())
	f, err := fleet.New(weak, strong)
	if err != nil {
		t.Fatal(err)
	}
	host := &testHost{t: t}
	s := fleet.NewScheduler(f, host, fleet.Config{Policy: fleet.NewSLOAware(sim.CheckpointCost{})})
	app := &fleet.App{Name: "a", SLO: &fleet.SLO{TargetHPS: 10, SlackMS: 200}}
	s.Arrive(app)
	if app.Node() != strong {
		t.Fatalf("slo-aware placed on %q, want the high-capacity node", app.Node().Name)
	}

	// A capped cluster predicts less deliverable capacity.
	before := strong.CapacityScore()
	strong.SetLevelCap(hmp.Big, 0)
	if after := strong.CapacityScore(); after >= before {
		t.Fatalf("capacity score ignored the DVFS cap: %v -> %v", before, after)
	}
	strong.SetLevelCap(hmp.Big, strong.Platform().Clusters[hmp.Big].MaxLevel())

	// Migration destinations are discounted by the move delay, scaled
	// against the app's slack: a costly checkpoint lowers every foreign
	// node's score but leaves the current node's alone.
	free := fleet.NewSLOAware(sim.CheckpointCost{})
	costly := fleet.NewSLOAware(sim.CheckpointCost{Freeze: 50 * sim.Millisecond})
	if free.Score(weak, app) <= costly.Score(weak, app) {
		t.Fatal("checkpoint cost did not discount the migration destination")
	}
	if free.Score(strong, app) != costly.Score(strong, app) {
		t.Fatal("checkpoint cost leaked into the app's current node score")
	}
}

// TestCoolestPolicy pins heat-aware placement: under a forced thermal
// gradient the coolest policy picks the cooler node.
func TestCoolestPolicy(t *testing.T) {
	mkThermalNode := func(id int, name string, initC float64) *fleet.Node {
		plat := hmp.Default()
		sn := sim.NewNode(id, name, plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
		gov, err := thermal.NewGovernor(thermal.Spec{Enabled: true, InitC: initC})
		if err != nil {
			t.Fatal(err)
		}
		sn.AddDaemon(gov)
		mp := mphars.New(sn.Machine, core.NewEstimatorSet(plat, power.SyntheticLinearModel(plat)), mphars.Config{})
		sn.AddDaemon(mp)
		return &fleet.Node{Node: sn, MP: mp, Gov: gov}
	}
	hot := mkThermalNode(0, "hot", 70)
	cold := mkThermalNode(1, "cold", 30)
	f, err := fleet.New(hot, cold)
	if err != nil {
		t.Fatal(err)
	}
	host := &testHost{t: t}
	s := fleet.NewScheduler(f, host, fleet.Config{Policy: mustPolicy(t, fleet.PolicyCoolest)})
	app := &fleet.App{Name: "a"}
	s.Arrive(app)
	if app.Node() != cold {
		t.Fatalf("coolest policy placed on %q (%.1f°C) instead of %q (%.1f°C)",
			app.Node().Name, app.Node().MaxTempC(), cold.Name, cold.MaxTempC())
	}
}

// TestBigFirstPolicy pins heterogeneity-aware placement: the node with the
// most free big capacity wins even when it is more loaded.
func TestBigFirstPolicy(t *testing.T) {
	small := newMPNode(0, "small", tinyPlatform())
	big := newMPNode(1, "big", hmp.Default())
	f, err := fleet.New(small, big)
	if err != nil {
		t.Fatal(err)
	}
	host := &testHost{t: t}
	s := fleet.NewScheduler(f, host, fleet.Config{Policy: mustPolicy(t, fleet.PolicyBigFirst)})
	app := &fleet.App{Name: "a"}
	s.Arrive(app)
	if app.Node() != big {
		t.Fatalf("big-first placed on %q", app.Node().Name)
	}
}

// TestLockstepDeterminism pins the shared clock: two identical fleets
// driven through the same schedule produce bit-identical energy and
// heartbeat trajectories.
func TestLockstepDeterminism(t *testing.T) {
	run := func() (float64, int64) {
		n0 := newMPNode(0, "n0", hmp.Default())
		n1 := newMPNode(1, "n1", tinyPlatform())
		f, err := fleet.New(n0, n1)
		if err != nil {
			t.Fatal(err)
		}
		host := &testHost{t: t}
		s := fleet.NewScheduler(f, host, fleet.Config{})
		a0, a1 := &fleet.App{Name: "a0"}, &fleet.App{Name: "a1"}
		s.Arrive(a0)
		f.RunUntil(500 * sim.Millisecond)
		s.Arrive(a1)
		f.RunUntil(2 * sim.Second)
		checkInv(t, s)
		var beats int64
		for _, app := range s.Apps() {
			if app.Proc != nil {
				beats += app.Proc.HB.Count()
			}
		}
		return f.EnergyJ(), beats
	}
	e1, b1 := run()
	e2, b2 := run()
	if e1 != e2 || b1 != b2 {
		t.Fatalf("fleet runs diverged: energy %v/%v beats %d/%d", e1, e2, b1, b2)
	}
}

// TestPolicyRegistry pins name resolution and the default.
func TestPolicyRegistry(t *testing.T) {
	if p, err := fleet.PolicyByName("", sim.CheckpointCost{}); err != nil || p.Name() != fleet.PolicyLeastLoaded {
		t.Fatalf("default policy = %v, %v", p, err)
	}
	for _, name := range fleet.PolicyNames() {
		p, err := fleet.PolicyByName(name, sim.CheckpointCost{})
		if err != nil || p.Name() != name {
			t.Fatalf("policy %q resolves to %v, %v", name, p, err)
		}
	}
	if _, err := fleet.PolicyByName("nope", sim.CheckpointCost{}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestFleetValidation pins the constructor's clock checks.
func TestFleetValidation(t *testing.T) {
	if _, err := fleet.New(); err == nil {
		t.Fatal("empty fleet accepted")
	}
	bad := newMPNode(1, "wrong-id", hmp.Default())
	if _, err := fleet.New(bad); err == nil {
		t.Fatal("mismatched node ID accepted")
	}
	drifted := newMPNode(1, "late", hmp.Default())
	drifted.Run(10 * sim.Millisecond)
	if _, err := fleet.New(newMPNode(0, "n0", hmp.Default()), drifted); err == nil {
		t.Fatal("drifted clock accepted")
	}
}

func mustPolicy(t *testing.T, name string) fleet.Policy {
	t.Helper()
	p, err := fleet.PolicyByName(name, sim.CheckpointCost{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}
