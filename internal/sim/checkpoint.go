package sim

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/heartbeat"
)

// CheckpointCost models what a work-conserving process move costs: the
// application is frozen for a fixed freeze-and-thaw time plus a transfer
// delay proportional to its checkpoint image, and resumes only once the
// whole delay has elapsed on the shared clock. The zero value is a free
// move — capture and restore within one tick, the application runnable
// again on the next.
type CheckpointCost struct {
	// Freeze is the fixed stop/copy/thaw time charged per move.
	Freeze Time
	// PerMB is the transfer delay charged per MB of checkpoint image.
	PerMB Time
	// SizeMB is the checkpoint image size in MB. Zero with a non-zero
	// PerMB means no transfer charge (nothing to move).
	SizeMB float64
}

// Delay returns the total stall a move charges on the clock.
func (c CheckpointCost) Delay() Time {
	d := c.Freeze
	if c.PerMB > 0 && c.SizeMB > 0 {
		d += Time(float64(c.PerMB) * c.SizeMB)
	}
	return d
}

// ThreadSnapshot is one thread's captured run state.
type ThreadSnapshot struct {
	// Remaining is the work left in the unit the thread was executing
	// (zero for a blocked thread).
	Remaining float64
	// WorkDone is the thread's cumulative retired work.
	WorkDone float64
	// Migrations is the thread's cumulative core-migration count.
	Migrations int
	// Blocked records whether the thread was parked waiting for work.
	Blocked bool
}

// WakeupSnapshot is one pending timer wakeup of the captured process.
type WakeupSnapshot struct {
	Local int
	At    Time
	Units float64
}

// ProcSnapshot is a process's complete checkpointable identity: the program
// object (whose internal barrier/queue state rides along), the heartbeat
// monitor (history and target intact), per-thread progress, and the pending
// wakeups — everything Restore needs to continue the application on another
// machine as if it had never stopped. Snapshots are produced by
// Machine.Checkpoint and consumed exactly once by Machine.Restore.
type ProcSnapshot struct {
	Name    string
	Prog    Program
	HB      *heartbeat.Monitor
	Threads []ThreadSnapshot
	Wakeups []WakeupSnapshot

	// TakenAt is the capture time; the fleet layer uses it to charge the
	// checkpoint delay from the moment the application stopped running.
	TakenAt Time
}

// Cloneable is the optional Program extension background (non-destructive)
// checkpoints require: CloneProgram returns an independent deep copy of the
// program's run state, leaving the live program untouched. Both workload
// templates implement it.
type Cloneable interface {
	CloneProgram() Program
}

// Clone returns an independent deep copy of the snapshot, or ok=false when
// the program does not implement Cloneable. Crash recovery clones before
// restoring so the retained snapshot stays valid if the same incarnation
// crashes again before the next background checkpoint.
func (s *ProcSnapshot) Clone() (*ProcSnapshot, bool) {
	cl, ok := s.Prog.(Cloneable)
	if !ok {
		return nil, false
	}
	c := &ProcSnapshot{
		Name:    s.Name,
		Prog:    cl.CloneProgram(),
		HB:      s.HB.Clone(),
		Threads: append([]ThreadSnapshot(nil), s.Threads...),
		Wakeups: append([]WakeupSnapshot(nil), s.Wakeups...),
		TakenAt: s.TakenAt,
	}
	return c, true
}

// Beats returns the snapshot's cumulative heartbeat count.
func (s *ProcSnapshot) Beats() int64 { return s.HB.Count() }

// WorkDone returns the snapshot's cumulative retired work.
func (s *ProcSnapshot) WorkDone() float64 {
	var sum float64
	for _, t := range s.Threads {
		sum += t.WorkDone
	}
	return sum
}

// Migrations returns the snapshot's cumulative thread-migration count.
func (s *ProcSnapshot) Migrations() int {
	sum := 0
	for _, t := range s.Threads {
		sum += t.Migrations
	}
	return sum
}

// Checkpoint captures a live process's run state and terminates the local
// incarnation: thread progress, workload-internal state (the Program object
// itself moves with the snapshot), heartbeat history, and pending wakeups
// are packaged for Restore on another machine (see capture); the wakeups
// are then dropped from the timer heap — they must fire on the
// destination, not linger here as dead deliveries — and the local process
// is killed exactly as a departure would be, so the machine's own digests
// and statistics for the executed portion stay valid. Must not be called
// from mid-execute program callbacks.
func (m *Machine) Checkpoint(p *Process) *ProcSnapshot {
	if m.inExec {
		panic("sim: Checkpoint called during execute")
	}
	if p.exited {
		panic(fmt.Sprintf("sim: Checkpoint of exited process %q", p.Name))
	}
	snap := m.capture(p, p.prog, p.HB)
	if len(snap.Wakeups) > 0 {
		kept := m.timers.entries[:0]
		for _, e := range m.timers.entries {
			if e.proc != p {
				kept = append(kept, e)
			}
		}
		m.timers.entries = kept
		heap.Init(&m.timers)
	}
	m.Kill(p)
	return snap
}

// Snapshot captures a live process's run state WITHOUT disturbing it: the
// program and heartbeat monitor are deep-copied, and capture copies thread
// progress and the pending wakeups, which stay in the timer heap. The
// process keeps running; the snapshot is a consistent restore point frozen
// at the capture instant. Returns ok=false when the program does not
// implement Cloneable (periodic background checkpoints then skip the app).
// Must not be called from mid-execute program callbacks.
func (m *Machine) Snapshot(p *Process) (*ProcSnapshot, bool) {
	if m.inExec {
		panic("sim: Snapshot called during execute")
	}
	if p.exited {
		panic(fmt.Sprintf("sim: Snapshot of exited process %q", p.Name))
	}
	cl, ok := p.prog.(Cloneable)
	if !ok {
		return nil, false
	}
	return m.capture(p, cl.CloneProgram(), p.HB.Clone()), true
}

// capture packages p's run state with the given program and heartbeat
// monitor, for Checkpoint and Snapshot alike: per-thread progress, and
// copies of p's pending wakeups sorted by (at, seq), the order the source
// would fire them, so re-pushing them on the destination preserves
// delivery order. It leaves the machine untouched.
func (m *Machine) capture(p *Process, prog Program, hb *heartbeat.Monitor) *ProcSnapshot {
	snap := &ProcSnapshot{
		Name:    p.Name,
		Prog:    prog,
		HB:      hb,
		Threads: make([]ThreadSnapshot, len(p.Threads)),
		TakenAt: m.now,
	}
	for i, t := range p.Threads {
		snap.Threads[i] = ThreadSnapshot{
			Remaining:  t.remaining,
			WorkDone:   t.workDone,
			Migrations: t.migrations,
			Blocked:    t.blocked,
		}
	}
	var mine []timerEntry
	for _, e := range m.timers.entries {
		if e.proc == p {
			mine = append(mine, e)
		}
	}
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].at != mine[j].at {
			return mine[i].at < mine[j].at
		}
		return mine[i].seq < mine[j].seq
	})
	for _, e := range mine {
		snap.Wakeups = append(snap.Wakeups, WakeupSnapshot{Local: e.local, At: e.at, Units: e.units})
	}
	return snap
}

// Restore continues a checkpointed process on this machine: a new Process,
// built as Spawn builds one (fresh ID, fresh threads, all-CPU affinity, no
// placement, the window plan resized), resumes the snapshot's program with
// its heartbeat monitor, per-thread progress, and pending wakeups intact —
// statistics are continuous across the move. The application stays frozen
// until resumeAt (clamped to now): runnable threads and wakeups due
// earlier are delivered at resumeAt, later wakeups fire on time. The
// program's Start hook is NOT invoked — the snapshot already holds the
// started state. A work-conserving move (a Checkpoint's snapshot) and a
// crash recovery (a background Snapshot taken before the crash) restore
// alike.
func (m *Machine) Restore(snap *ProcSnapshot, resumeAt Time) *Process {
	if m.inExec {
		panic("sim: Restore called during execute")
	}
	if n := snap.Prog.NumThreads(); n != len(snap.Threads) {
		panic(fmt.Sprintf("sim: Restore %q: program declares %d threads, snapshot has %d",
			snap.Name, n, len(snap.Threads)))
	}
	if resumeAt < m.now {
		resumeAt = m.now
	}
	p := m.newProcess(snap.Name, snap.Prog, snap.HB)
	for i, ts := range snap.Threads {
		t := p.Threads[i]
		t.workDone, t.migrations = ts.WorkDone, ts.Migrations
		if ts.Blocked || ts.Remaining <= 0 {
			continue
		}
		if resumeAt <= m.now {
			t.remaining = ts.Remaining
			m.makeRunnable(t)
		} else {
			m.timers.push(timerEntry{at: resumeAt, proc: p, local: i, units: ts.Remaining})
		}
	}
	for _, w := range snap.Wakeups {
		at := w.At
		if at < resumeAt {
			at = resumeAt
		}
		m.timers.push(timerEntry{at: at, proc: p, local: w.Local, units: w.Units})
	}
	return p
}
