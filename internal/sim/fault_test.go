package sim_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestFailKillsAndFreezes pins crash semantics: every resident process dies
// without a clean exit, all cores go dark, energy integration freezes, and
// the clock keeps stepping in lockstep.
func TestFailKillsAndFreezes(t *testing.T) {
	b, _ := workload.ByShort("SW")
	m := newTestMachine()
	p := m.Spawn("app", b.New(8), 10)
	m.Run(2 * sim.Second)
	preWork := p.WorkDone()
	if preWork == 0 {
		t.Fatal("test premise broken: app never ran")
	}

	m.Fail()
	if !m.Failed() {
		t.Fatal("machine not failed after Fail")
	}
	if !p.Exited() {
		t.Fatal("resident process survived the crash")
	}
	if m.OnlineMask().Count() != 0 {
		t.Fatalf("crashed machine still has %d cores online", m.OnlineMask().Count())
	}
	preEnergy, preNow := m.EnergyJ(), m.Now()
	m.RunUntil(preNow + sim.Second)
	if m.Now() != preNow+sim.Second {
		t.Fatal("crashed machine stopped stepping: fleet clock would skew")
	}
	if m.EnergyJ() != preEnergy {
		t.Fatalf("crashed machine drew power: %v -> %v J", preEnergy, m.EnergyJ())
	}
	if p.WorkDone() != preWork {
		t.Fatal("dead process progressed on a crashed machine")
	}
	m.Fail() // idempotent
	if !m.Failed() {
		t.Fatal("second Fail cleared the failure")
	}
}

// TestHealRestoresHotplugState pins reboot semantics: Heal restores the
// pre-crash online mask, adjusted by SetCoreOnline calls made while down —
// so a permanent core failure during the outage survives the reboot.
func TestHealRestoresHotplugState(t *testing.T) {
	m := newTestMachine()
	total := m.OnlineMask().Count()
	m.SetCoreOnline(1, false) // pre-crash hotplug
	m.Run(100 * sim.Millisecond)

	m.Fail()
	m.SetCoreOnline(2, false) // core fails permanently while the node is down
	m.Heal()
	if m.Failed() {
		t.Fatal("machine still failed after Heal")
	}
	mask := m.OnlineMask()
	if mask.Has(1) || mask.Has(2) {
		t.Fatalf("offline cores revived by the reboot: mask %v", mask)
	}
	if got := mask.Count(); got != total-2 {
		t.Fatalf("%d cores online after heal, want %d", got, total-2)
	}
	// A healed machine accepts and runs work again.
	b, _ := workload.ByShort("SW")
	p := m.Spawn("app", b.New(4), 10)
	m.RunUntil(m.Now() + sim.Second)
	if p.WorkDone() == 0 {
		t.Fatal("healed machine executed nothing")
	}
	m.Heal() // idempotent on a healthy machine
	if got := m.OnlineMask().Count(); got != total-2 {
		t.Fatalf("redundant Heal changed the mask: %d online", got)
	}
}

// TestSnapshotNonDestructive pins the background-checkpoint contract: the
// snapshot is a consistent restore point and the live process keeps running
// undisturbed.
func TestSnapshotNonDestructive(t *testing.T) {
	b, _ := workload.ByShort("SW")
	m := newTestMachine()
	p := m.Spawn("app", b.New(8), 10)
	m.Run(2 * sim.Second)
	preBeats, preWork := p.HB.Count(), p.WorkDone()

	snap, ok := m.Snapshot(p)
	if !ok {
		t.Fatal("SW program not snapshottable")
	}
	if p.Exited() {
		t.Fatal("Snapshot killed the live process")
	}
	if snap.Beats() != preBeats || snap.WorkDone() != preWork {
		t.Fatalf("snapshot stats %d/%v, want %d/%v", snap.Beats(), snap.WorkDone(), preBeats, preWork)
	}
	m.RunUntil(4 * sim.Second)
	if p.WorkDone() <= preWork {
		t.Fatal("live process stalled after being snapshotted")
	}
	if snap.WorkDone() != preWork {
		t.Fatalf("snapshot mutated by the live run: %v -> %v", preWork, snap.WorkDone())
	}

	// The frozen state restores on another machine and resumes from the
	// capture point, not from the live process's later progress.
	m2 := newTestMachine()
	m2.RunUntil(4 * sim.Second)
	p2 := m2.Restore(snap, 0)
	if got := p2.WorkDone(); got != preWork {
		t.Fatalf("restored work %v, want the captured %v", got, preWork)
	}
	m2.RunUntil(6 * sim.Second)
	if p2.WorkDone() <= preWork {
		t.Fatal("restored process never progressed")
	}
}

// TestProcSnapshotCloneIndependent pins snapshot cloning: the clone restores
// independently, unaffected by the original being consumed elsewhere.
func TestProcSnapshotCloneIndependent(t *testing.T) {
	b, _ := workload.ByShort("SW")
	m := newTestMachine()
	p := m.Spawn("app", b.New(8), 10)
	m.Run(2 * sim.Second)
	snap, ok := m.Snapshot(p)
	if !ok {
		t.Fatal("SW program not snapshottable")
	}
	clone, ok := snap.Clone()
	if !ok {
		t.Fatal("SW snapshot not cloneable")
	}
	preWork := snap.WorkDone()

	m2 := newTestMachine()
	m2.RunUntil(2 * sim.Second)
	p2 := m2.Restore(snap, 0)
	m2.RunUntil(4 * sim.Second)
	if p2.WorkDone() <= preWork {
		t.Fatal("original snapshot failed to restore")
	}
	if clone.WorkDone() != preWork {
		t.Fatalf("restoring the original mutated the clone: %v -> %v", preWork, clone.WorkDone())
	}
	m3 := newTestMachine()
	m3.RunUntil(2 * sim.Second)
	p3 := m3.Restore(clone, 0)
	m3.RunUntil(4 * sim.Second)
	if p3.WorkDone() <= preWork {
		t.Fatal("clone failed to restore after the original was consumed")
	}
}
