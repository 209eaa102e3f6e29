package sim_test

import (
	"testing"

	"repro/internal/hmp"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

func newTestMachine() *sim.Machine {
	plat := hmp.Default()
	return sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
}

// TestCheckpointCostDelay pins the cost model arithmetic.
func TestCheckpointCostDelay(t *testing.T) {
	if d := (sim.CheckpointCost{}).Delay(); d != 0 {
		t.Fatalf("zero cost delays %d", d)
	}
	c := sim.CheckpointCost{Freeze: 500, PerMB: 200, SizeMB: 8}
	if d := c.Delay(); d != 500+1600 {
		t.Fatalf("delay = %d, want 2100", d)
	}
	if d := (sim.CheckpointCost{Freeze: 300, PerMB: 200}).Delay(); d != 300 {
		t.Fatalf("sizeless transfer charged: %d", d)
	}
}

// TestCheckpointRestoreInvisible pins the work-conserving contract at its
// strongest, on the data-parallel workload whose placement the balancer
// reconstructs identically: freezing the application mid-run and thawing it
// on an identical idle machine at the same clock, with zero checkpoint
// cost, is invisible — beats and work continue bit-for-bit as in an
// uninterrupted run. The pipeline workload (FE) cannot be bit-invisible —
// the move discards thread placement, and its heavy block/unblock churn is
// placement-sensitive — so it asserts exact continuity at the cut plus
// progress after it.
func TestCheckpointRestoreInvisible(t *testing.T) {
	for _, short := range []string{"SW", "FE"} {
		b, _ := workload.ByShort(short)

		ref := newTestMachine()
		rp := ref.Spawn("app", b.New(8), 10)
		ref.Run(4 * sim.Second)

		m1 := newTestMachine()
		p1 := m1.Spawn("app", b.New(8), 10)
		m1.Run(2 * sim.Second)
		preBeats, preWork := p1.HB.Count(), p1.WorkDone()
		snap := m1.Checkpoint(p1)
		if !p1.Exited() {
			t.Fatalf("%s: source incarnation still alive after checkpoint", short)
		}
		if snap.Beats() != preBeats || snap.WorkDone() != preWork {
			t.Fatalf("%s: snapshot stats %d/%v, want %d/%v",
				short, snap.Beats(), snap.WorkDone(), preBeats, preWork)
		}
		m2 := newTestMachine()
		m2.RunUntil(2 * sim.Second) // idle, to align the shared clock
		p2 := m2.Restore(snap, 0)
		if p2.HB != p1.HB {
			t.Fatalf("%s: heartbeat monitor was not moved", short)
		}
		if got := p2.WorkDone(); got != preWork {
			t.Fatalf("%s: work reset across the move: %v != %v", short, got, preWork)
		}
		m2.RunUntil(4 * sim.Second)

		if p2.HB.Count() <= preBeats || p2.WorkDone() <= preWork {
			t.Errorf("%s: no progress after restore", short)
		}
		if short != "SW" {
			continue
		}
		if got, want := p2.HB.Count(), rp.HB.Count(); got != want {
			t.Errorf("%s: beats after move = %d, uninterrupted = %d", short, got, want)
		}
		if got, want := p2.WorkDone(), rp.WorkDone(); got != want {
			t.Errorf("%s: work after move = %v, uninterrupted = %v", short, got, want)
		}
	}
}

// TestCheckpointDelayFreezes pins the cost charge: a restored application
// makes no progress before resumeAt and continues afterwards.
func TestCheckpointDelayFreezes(t *testing.T) {
	b, _ := workload.ByShort("SW")
	m1 := newTestMachine()
	p1 := m1.Spawn("app", b.New(8), 10)
	m1.Run(2 * sim.Second)
	snap := m1.Checkpoint(p1)
	preWork := snap.WorkDone()

	m2 := newTestMachine()
	m2.RunUntil(2 * sim.Second)
	resume := m2.Now() + 500*sim.Millisecond
	p2 := m2.Restore(snap, resume)
	m2.RunUntil(resume)
	if w := p2.WorkDone(); w != preWork {
		t.Fatalf("frozen app progressed: %v -> %v", preWork, w)
	}
	m2.RunUntil(resume + sim.Second)
	if w := p2.WorkDone(); w <= preWork {
		t.Fatal("app never thawed")
	}
}

// TestCheckpointMovesWakeups pins pending-wakeup transfer: an application
// checkpointed inside its heartbeat-less startup phase (timer-driven) still
// starts on the destination, and the dead source incarnation never runs.
func TestCheckpointMovesWakeups(t *testing.T) {
	b, _ := workload.ByShort("BL") // blackscholes: timer-delayed start
	m1 := newTestMachine()
	p1 := m1.Spawn("app", b.New(8), 10)
	m1.Run(500 * sim.Millisecond) // still inside the start delay
	if p1.WorkDone() != 0 {
		t.Fatal("test premise broken: BL started before its delay")
	}
	snap := m1.Checkpoint(p1)
	if len(snap.Wakeups) == 0 {
		t.Fatal("start-delay wakeups not captured")
	}
	m2 := newTestMachine()
	m2.RunUntil(500 * sim.Millisecond)
	p2 := m2.Restore(snap, 0)
	m2.RunUntil(10 * sim.Second)
	m1.RunUntil(10 * sim.Second)
	if p2.HB.Count() == 0 {
		t.Fatal("restored app never started: wakeups lost in the move")
	}
	if p1.WorkDone() != 0 {
		t.Fatal("dead source incarnation executed after the move")
	}
}
