package sim

import (
	"math/rand"
	"testing"

	"repro/internal/hmp"
)

// loop is a program whose thread i redoes a unit of units[i] forever: Start
// makes every thread runnable, and a thread stays runnable until blocked.
type loop struct{ units []float64 }

func (l *loop) Name() string    { return "loop" }
func (l *loop) NumThreads() int { return len(l.units) }

func (l *loop) Start(p *Process) {
	for i, u := range l.units {
		p.SetWork(i, u)
	}
}

func (l *loop) UnitDone(p *Process, local int)           { p.SetWork(local, l.units[local]) }
func (l *loop) SpeedFactor(int, hmp.ClusterKind) float64 { return 1 }

// threadMigrations sums the process's thread migrations.
func threadMigrations(p *Process) int {
	n := 0
	for _, t := range p.Threads {
		n += t.Migrations()
	}
	return n
}

// TestMaskSettledMatchesPlace checks MaskBalancer.Settled against the
// Place call it certifies, on seeded random machines: 1–12 threads with
// random affinity masks and runnable flags, random cores offline, placed by
// a few Steps and then unbalanced by blocking and waking threads where
// they sit. Whenever no thread is misplaced and some core is online,
// Settled must report settled exactly when one Place migrates no thread.
func TestMaskSettledMatchesPlace(t *testing.T) {
	plat := hmp.Default()
	nc := plat.TotalCores()
	var checked, moves int
	for seed := int64(1); seed <= 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New(plat, Config{})
		b := NewMaskBalancer()
		m.SetPlacer(b)
		prog := &loop{units: make([]float64, 1+rng.Intn(12))}
		for i := range prog.units {
			prog.units[i] = 0.05 + rng.Float64()
		}
		p := m.Spawn("app", prog, 10)
		for i := range prog.units {
			if rng.Intn(3) > 0 {
				p.SetAffinity(i, hmp.CPUMask(1+rng.Intn(1<<nc-1)))
			}
			if rng.Intn(4) == 0 {
				p.Block(i)
			}
		}
		if rng.Intn(2) == 0 {
			for cpu := 0; cpu < nc; cpu++ {
				if rng.Intn(4) == 0 {
					m.SetCoreOnline(cpu, false)
				}
			}
		}
		for s := 1 + rng.Intn(3); s > 0; s-- {
			m.Step()
		}
		for i := range prog.units {
			switch rng.Intn(3) {
			case 0:
				p.Block(i)
			case 1:
				p.SetWork(i, prog.units[i])
			}
		}
		if m.misplaced != 0 || m.online == 0 {
			continue
		}
		queues := make([]int, nc)
		for cpu := range queues {
			queues[cpu] = m.RunQueueLen(cpu)
		}
		_, settled := b.Settled(m)
		before := threadMigrations(p)
		b.Place(m)
		moved := threadMigrations(p) - before
		if settled != (moved == 0) {
			t.Fatalf("seed %d: Settled = %v, but Place migrated %d threads (run queues %v, online %08b)",
				seed, settled, moved, queues, m.online)
		}
		checked++
		if moved > 0 {
			moves++
		}
	}
	if moves == 0 || moves == checked {
		t.Fatalf("%d of %d checked machines moved a thread: both outcomes must occur", moves, checked)
	}
	t.Logf("%d machines checked, %d unsettled", checked, moves)
}
