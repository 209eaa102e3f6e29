package sim

import (
	"math"
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

// sweepBalancer is the mask balancer as it was before its per-mask floors:
// the repair pass, then a sweep that asks target of every thread on a core
// more than one above the online minimum, and a Settled that does the
// same. It is the reference MaskBalancer's Place and Settled must match.
type sweepBalancer struct{ counts []int }

func (b *sweepBalancer) runLens(m *Machine) []int {
	b.counts = b.counts[:0]
	for cpu := range m.cores {
		b.counts = append(b.counts, m.cores[cpu].runLen)
	}
	return b.counts
}

func (b *sweepBalancer) Place(m *Machine) {
	online := m.online
	counts := b.runLens(m)
	if m.misplaced > 0 {
		for _, id := range m.runnable {
			if t := m.threads[id]; t.misplaced && t.core >= 0 {
				counts[t.core]--
			}
		}
		for _, id := range m.runnable {
			t := m.threads[id]
			if !t.misplaced {
				continue
			}
			best := -1
			mask := t.affinity & online
			for cpu := range counts {
				if mask.Has(cpu) && (best < 0 || counts[cpu] < counts[best]) {
					best = cpu
				}
			}
			if best >= 0 {
				m.Migrate(t, best)
				counts[best]++
			}
		}
	}
	minC, maxC, ok := spread(m, counts)
	if !ok || maxC-minC <= 1 {
		return
	}
	for _, id := range m.runnable {
		t := m.threads[id]
		cur := t.core
		if cur < 0 || counts[cur] <= minC+1 {
			continue
		}
		if best := target(t, counts, online); best != cur {
			counts[cur]--
			counts[best]++
			m.Migrate(t, best)
		}
	}
}

func (b *sweepBalancer) Settled(m *Machine) (SteadyTicker, bool) {
	if m.misplaced != 0 {
		return nil, false
	}
	if len(m.runnable) == 0 {
		return nil, true
	}
	counts := b.runLens(m)
	minC, maxC, ok := spread(m, counts)
	if !ok {
		return nil, false
	}
	if maxC-minC <= 1 {
		return nil, true
	}
	for _, id := range m.runnable {
		t := m.threads[id]
		if counts[t.core] > minC+1 && target(t, counts, m.online) != t.core {
			return nil, false
		}
	}
	return nil, true
}

// TestMaskShortcutsMatchSweep runs seeded random machines twice, one under
// MaskBalancer and one under the plain sweep (sweepBalancer), through the
// same Steps: 1–3 processes of 1–12 threads, each process split between two
// masks the way HARS's schedulers install them or given random ones,
// affinities widened and narrowed, threads blocked and woken, and cores
// taken offline and back between Steps. Before every Step both Settled
// verdicts must agree, and after it every thread's core, move count,
// pending migration stall and remaining work must be equal. Each pass of
// Place visits threads in runnable order and moves each at most once, and
// a thread's stall adds up the penalty of every move it made, so these
// see a move made to another cluster, made by a different thread, or
// skipped. A floor kept across a move, or taken over a mask without the
// online cores, fails here.
func TestMaskShortcutsMatchSweep(t *testing.T) {
	plat := hmp.Default()
	nc := plat.TotalCores()
	all := hmp.AllCPUs(plat)
	big, little := hmp.ClusterMask(plat, hmp.Big), hmp.ClusterMask(plat, hmp.Little)
	var steps, moved, unsettled, offline int
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ma, mb := New(plat, Config{}), New(plat, Config{})
		mb.SetPlacer(&sweepBalancer{})
		var pa, pb []*Process
		for k := 1 + rng.Intn(3); k > 0; k-- {
			prog := &loop{units: make([]float64, 1+rng.Intn(12))}
			for i := range prog.units {
				prog.units[i] = 0.002 + 0.02*rng.Float64()
			}
			pa = append(pa, ma.Spawn("app", prog, 10))
			pb = append(pb, mb.Spawn("app", prog, 10))
		}
		randomMask := func() hmp.CPUMask { return hmp.CPUMask(1 + rng.Intn(1<<nc-1)) }
		for step := 0; step < 80; step++ {
			i := rng.Intn(len(pa))
			switch r := rng.Intn(12); {
			case r == 0: // two masks, split at a random thread
				lo, hi := big, little
				if rng.Intn(2) == 0 {
					lo, hi = randomMask(), randomMask()
				}
				cut := rng.Intn(len(pa[i].Threads) + 1)
				for l := range pa[i].Threads {
					mask := hi
					if l < cut {
						mask = lo
					}
					pa[i].SetAffinity(l, mask)
					pb[i].SetAffinity(l, mask)
				}
			case r == 1:
				l, mask := rng.Intn(len(pa[i].Threads)), randomMask()
				if rng.Intn(2) == 0 {
					mask = all
				}
				pa[i].SetAffinity(l, mask)
				pb[i].SetAffinity(l, mask)
			case r == 2:
				cpu := rng.Intn(nc)
				on := !ma.CoreOnline(cpu) || ma.OnlineMask() == hmp.MaskOf(cpu) || rng.Intn(3) == 0
				if !on {
					for c := 0; c < nc; c++ { // the others come back
						ma.SetCoreOnline(c, true)
						mb.SetCoreOnline(c, true)
					}
				}
				ma.SetCoreOnline(cpu, on)
				mb.SetCoreOnline(cpu, on)
			case r <= 5:
				l := rng.Intn(len(pa[i].Threads))
				if pa[i].Blocked(l) {
					u := 0.002 + 0.02*rng.Float64()
					pa[i].SetWork(l, u)
					pb[i].SetWork(l, u)
				} else {
					pa[i].Block(l)
					pb[i].Block(l)
				}
			}
			if ma.online != ma.allMask {
				offline++
			}
			_, sa := ma.placer.(*MaskBalancer).Settled(ma)
			_, sb := mb.placer.(*sweepBalancer).Settled(mb)
			if sa != sb {
				t.Fatalf("seed %d step %d: Settled = %v, the plain sweep's = %v", seed, step, sa, sb)
			}
			if !sa {
				unsettled++
			}
			before := 0
			for _, th := range ma.threads {
				before += th.migrations
			}
			ma.Step()
			mb.Step()
			steps++
			after := 0
			for k, ta := range ma.threads {
				tb := mb.threads[k]
				if ta.core != tb.core || ta.migrations != tb.migrations || ta.penalty != tb.penalty ||
					math.Float64bits(ta.remaining) != math.Float64bits(tb.remaining) {
					t.Fatalf("seed %d step %d thread %d: core %d, %d moves, stall %v, remaining %v; the plain sweep's %d, %d, %v, %v",
						seed, step, k, ta.core, ta.migrations, ta.penalty, ta.remaining, tb.core, tb.migrations, tb.penalty, tb.remaining)
				}
				after += ta.migrations
			}
			if after > before {
				moved++
			}
		}
	}
	if unsettled < steps/20 || unsettled == steps || moved < steps/20 || offline < steps/20 || offline == steps {
		t.Fatalf("%d Steps: %d unsettled, %d moved a thread, %d with a core offline: the inputs no longer reach both verdicts, moves and hotplug",
			steps, unsettled, moved, offline)
	}
	t.Logf("%d Steps: %d unsettled, %d moved a thread, %d with a core offline", steps, unsettled, moved, offline)
}
