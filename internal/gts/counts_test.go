package gts

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hmp"
	"repro/internal/sim"
)

// napper is a program whose threads finish a unit and then either take
// the next one or sleep for a few ticks, drawn from its own seeded source.
type napper struct {
	n   int
	rng *rand.Rand
}

func (p *napper) Name() string    { return "napper" }
func (p *napper) NumThreads() int { return p.n }
func (p *napper) Start(pr *sim.Process) {
	for i := 0; i < p.n; i++ {
		pr.SetWork(i, 0.002+0.01*p.rng.Float64())
	}
}
func (p *napper) UnitDone(pr *sim.Process, local int) {
	if p.rng.Intn(3) == 0 {
		pr.WakeAt(local, pr.Now()+sim.Time(1+p.rng.Intn(5))*sim.Millisecond, 0.005)
		return
	}
	pr.SetWork(local, 0.002+0.01*p.rng.Float64())
}
func (p *napper) SpeedFactor(local int, k hmp.ClusterKind) float64 {
	if k == hmp.Big {
		return 1.5
	}
	return 1
}

// randomMask returns a non-empty random subset of the platform's cores.
func randomMask(rng *rand.Rand, plat *hmp.Platform) hmp.CPUMask {
	for {
		if m := hmp.CPUMask(rng.Uint64()) & hmp.AllCPUs(plat); m != 0 {
			return m
		}
	}
}

// TestQueueCountsFastPath drives GTS machines through random cpusets,
// affinities, hotplugs and threads blocked and woken between Steps. Before
// every Step, queueCounts must report clean exactly when every runnable
// thread is permitted where it sits, and its run-queue counts must then
// equal the full walk's. A fast path that skipped its usable-queue check
// would count threads an allowed-cpuset change had just stranded.
func TestQueueCountsFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	fast, declined := 0, 0
	for trial := 0; trial < 60; trial++ {
		plat := hmp.Default()
		if trial%2 == 1 {
			plat.Clusters[hmp.Big].Cores, plat.Clusters[hmp.Little].Cores = 2, 6
		}
		m := sim.New(plat, sim.Config{})
		g := New(plat)
		m.SetPlacer(g)
		procs := make([]*sim.Process, 1+rng.Intn(3))
		for i := range procs {
			procs[i] = m.Spawn("p", &napper{n: 1 + rng.Intn(12), rng: rand.New(rand.NewSource(rng.Int63()))}, 10)
		}
		for step := 0; step < 300; step++ {
			switch r := rng.Intn(20); {
			case r == 0:
				g.SetAllowed(randomMask(rng, plat))
			case r <= 2:
				p := procs[rng.Intn(len(procs))]
				p.SetAffinity(rng.Intn(len(p.Threads)), randomMask(rng, plat))
			case r == 3:
				cpu := rng.Intn(plat.TotalCores())
				if m.CoreOnline(cpu) && m.OnlineMask() != hmp.CPUMask(0).Set(cpu) {
					m.SetCoreOnline(cpu, false)
				} else {
					m.SetCoreOnline(cpu, true)
				}
			case r <= 5:
				p := procs[rng.Intn(len(procs))]
				if local := rng.Intn(len(p.Threads)); !p.Blocked(local) {
					p.Block(local)
					p.WakeAt(local, m.Now()+sim.Time(rng.Intn(4))*sim.Millisecond, 0.004)
				}
			}
			threads := m.Threads()
			usable := g.Allowed & m.OnlineMask()
			want := countQueues(make([]int, plat.TotalCores()), threads, usable)
			allPermitted := true
			for _, th := range threads {
				if th.Runnable() && (th.Core() < 0 || !permitted(th, th.Core(), usable)) {
					allPermitted = false
				}
			}
			got, clean := g.queueCounts(m, threads, usable)
			if clean != allPermitted {
				t.Fatalf("trial %d step %d: clean = %v, every runnable thread permitted = %v", trial, step, clean, allPermitted)
			}
			if clean {
				fast++
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d step %d: fast counts %v, walk %v (usable %v)", trial, step, got, want, usable)
				}
			} else if m.Misplaced() == 0 {
				declined++ // declined on a non-empty queue outside usable
			}
			m.Step()
		}
	}
	// Both branches must be reached, or the property says nothing.
	if fast < 1000 || declined < 10 {
		t.Fatalf("fast path on %d checks, declined on an unusable queue on %d: the inputs no longer reach both", fast, declined)
	}
	t.Logf("fast path on %d checks, declined on an unusable queue on %d", fast, declined)
}

// fullScans is GTS's placement before its shortcuts: the migration pass
// asks leastLoaded of every crossing thread and checks the destination's
// queue afterwards, and the intra-cluster sweep and Settled's replay of it
// ask balanceTarget of every runnable thread, skipping only when every
// cluster is level. It is the reference Scheduler's Place and Settled must
// match.
type fullScans struct{ *Scheduler }

func (g fullScans) Place(m *sim.Machine) {
	threads := m.Threads()
	for len(g.loads) < len(threads) {
		g.loads = append(g.loads, LoadScale)
	}
	d, gain := g.Decay, g.gain()
	for _, t := range threads {
		g.loads[t.Global] = decay(g.loads[t.Global], d, term(t.RanLastTick(), gain))
	}
	usable := g.Allowed & m.OnlineMask()
	counts := countQueues(make([]int, m.Platform().TotalCores()), threads, usable)
	for _, t := range threads {
		if !t.Runnable() || (t.Core() >= 0 && permitted(t, t.Core(), usable)) {
			continue
		}
		if cpu := leastLoaded(t, counts, usable); cpu >= 0 {
			m.Migrate(t, cpu)
			counts[cpu]++
		}
	}
	g.ticks++
	if g.ticks%g.PeriodTicks == 0 {
		g.migrationPass(m, threads, counts, usable)
	}
	g.balanceClusters(m, threads, counts, usable)
}

func (g fullScans) migrationPass(m *sim.Machine, threads []*sim.Thread, counts []int, usable hmp.CPUMask) {
	plat := m.Platform()
	big := usable & hmp.ClusterMask(plat, hmp.Big)
	little := usable & hmp.ClusterMask(plat, hmp.Little)
	for _, t := range threads {
		if !t.Runnable() || t.Core() < 0 {
			continue
		}
		up := plat.ClusterOf(t.Core()) == hmp.Little
		if !g.crosses(g.loads[t.Global], up) {
			continue
		}
		within := little
		if up {
			within = big
		}
		cpu := leastLoaded(t, counts, within)
		if cpu < 0 || up && counts[cpu]+1 > g.UpQueueLimit {
			continue
		}
		counts[t.Core()]--
		m.Migrate(t, cpu)
		counts[cpu]++
	}
	g.idleBalance(m, threads, counts, usable)
}

func (g fullScans) balanceClusters(m *sim.Machine, threads []*sim.Thread, counts []int, usable hmp.CPUMask) {
	plat := m.Platform()
	if fullLevel(plat, counts, usable) {
		return
	}
	for _, t := range threads {
		if !t.Runnable() || t.Core() < 0 {
			continue
		}
		if cur, best := t.Core(), fullTarget(plat, t, counts, usable); best != cur {
			counts[cur]--
			counts[best]++
			m.Migrate(t, best)
		}
	}
}

func fullTarget(plat *hmp.Platform, t *sim.Thread, counts []int, usable hmp.CPUMask) int {
	cur := t.Core()
	k := plat.ClusterOf(cur)
	first := plat.FirstCPU(k)
	mask := t.Affinity() & usable
	best := cur
	for cpu := first; cpu < first+plat.Clusters[k].Cores; cpu++ {
		if cpu != cur && mask.Has(cpu) && counts[cpu] < counts[best]-1 {
			best = cpu
		}
	}
	return best
}

func fullLevel(plat *hmp.Platform, counts []int, usable hmp.CPUMask) bool {
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		first := plat.FirstCPU(k)
		lo, hi := -1, 0
		for cpu := first; cpu < first+plat.Clusters[k].Cores; cpu++ {
			n := counts[cpu]
			hi = max(hi, n)
			if usable.Has(cpu) && (lo < 0 || n < lo) {
				lo = n
			}
		}
		if lo >= 0 && hi-lo > 1 {
			return false
		}
	}
	return true
}

// Settled returns the reference verdict and the parent's watch list: every
// runnable thread whose threshold move the counts permit.
func (g fullScans) Settled(m *sim.Machine) ([]lane, bool) {
	threads := m.Threads()
	if len(g.loads) < len(threads) {
		return nil, false
	}
	usable := g.Allowed & m.OnlineMask()
	counts := make([]int, m.Platform().TotalCores())
	countQueues(counts, threads, usable)
	for _, t := range threads {
		if t.Runnable() && (t.Core() < 0 || !permitted(t, t.Core(), usable)) {
			return nil, false
		}
	}
	plat := m.Platform()
	little := usable & hmp.ClusterMask(plat, hmp.Little)
	var room hmp.CPUMask
	for cpu, n := range counts {
		if usable.Has(cpu) && plat.ClusterOf(cpu) == hmp.Big && n+1 <= g.UpQueueLimit {
			room = room.Set(cpu)
		}
	}
	even := fullLevel(plat, counts, usable)
	var watch []lane
	for _, t := range threads {
		if !t.Runnable() {
			continue
		}
		cur := t.Core()
		if !even && fullTarget(plat, t, counts, usable) != cur {
			return nil, false
		}
		up := plat.ClusterOf(cur) == hmp.Little
		dest := little
		if up {
			dest = room
		}
		if t.Affinity()&dest != 0 {
			watch = append(watch, lane{id: t.Global, ran0: t.RanLastTick(), ran: t.RunsInWindow(), up: up})
		}
	}
	if g.pulls(counts) {
		for cpu, n := range counts {
			if n == 0 && usable.Has(cpu) && g.idleVictim(cpu, threads, counts, usable) != nil {
				return nil, false
			}
		}
	}
	return watch, true
}

// TestPlaceShortcutsMatchFullScans runs seeded random GTS machines twice,
// one under Scheduler and one under fullScans, through the same Steps:
// random cpusets, affinities, hotplugs, threads blocked and woken, and
// loads set anywhere from idle to saturated between Steps, so threshold
// moves up and down meet full and freed big cores in one pass. Before every
// Step both Settled verdicts must agree, and the bound over Settled's watch
// list must equal the bound over the reference's, whose list also holds
// the settled lanes. After it every thread's core, move count, remaining
// work and load must be equal, bit for bit: each pass visits threads in
// spawn order, and a move's stall, which depends on the clusters it
// joins, delays the thread's work, so a move made elsewhere, by another
// thread or not at all shows. A room mask left stale after a down-move
// fails here.
func TestPlaceShortcutsMatchFullScans(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var steps, moved, unsettled, watched, refWatched int
	for trial := 0; trial < 80; trial++ {
		plat := hmp.Default()
		if trial%2 == 1 {
			plat.Clusters[hmp.Big].Cores, plat.Clusters[hmp.Little].Cores = 2, 6
		}
		ma, mb := sim.New(plat, sim.Config{}), sim.New(plat, sim.Config{})
		ga, gb := New(plat), New(plat)
		ma.SetPlacer(ga)
		mb.SetPlacer(fullScans{gb})
		var pa, pb []*sim.Process
		for k := 1 + rng.Intn(3); k > 0; k-- {
			n, seed := 1+rng.Intn(12), rng.Int63()
			pa = append(pa, ma.Spawn("p", &napper{n: n, rng: rand.New(rand.NewSource(seed))}, 10))
			pb = append(pb, mb.Spawn("p", &napper{n: n, rng: rand.New(rand.NewSource(seed))}, 10))
		}
		for step := 0; step < 300; step++ {
			i := rng.Intn(len(pa))
			switch r := rng.Intn(20); {
			case r == 0:
				mask := randomMask(rng, plat)
				ga.SetAllowed(mask)
				gb.SetAllowed(mask)
			case r <= 2:
				l, mask := rng.Intn(len(pa[i].Threads)), randomMask(rng, plat)
				pa[i].SetAffinity(l, mask)
				pb[i].SetAffinity(l, mask)
			case r == 3:
				cpu := rng.Intn(plat.TotalCores())
				on := !ma.CoreOnline(cpu) || ma.OnlineMask() == hmp.CPUMask(0).Set(cpu)
				ma.SetCoreOnline(cpu, on)
				mb.SetCoreOnline(cpu, on)
			case r <= 5:
				if l := rng.Intn(len(pa[i].Threads)); !pa[i].Blocked(l) {
					at := ma.Now() + sim.Time(rng.Intn(4))*sim.Millisecond
					pa[i].Block(l)
					pb[i].Block(l)
					pa[i].WakeAt(l, at, 0.004)
					pb[i].WakeAt(l, at, 0.004)
				}
			case r <= 9:
				for k := range ga.loads {
					if rng.Intn(3) == 0 {
						load := []float64{10, 200, 500, 900, LoadScale}[rng.Intn(5)]
						ga.loads[k], gb.loads[k] = load, load
					}
				}
			}
			tka, sa := ga.Settled(ma)
			watch, sb := fullScans{gb}.Settled(mb)
			if sa != sb {
				t.Fatalf("trial %d step %d: Settled = %v, the full scans' = %v", trial, step, sa, sb)
			}
			if sa {
				if tka != sim.SteadyTicker(ga) {
					t.Fatalf("trial %d step %d: Settled returned ticker %v", trial, step, tka)
				}
				watched += len(ga.watch)
				refWatched += len(watch)
				for _, n := range []int64{1, 7, 200, 5000} {
					if got, want := ga.bound(ga.watch, n), gb.bound(watch, n); got != want {
						t.Fatalf("trial %d step %d: bound over %d watched lanes = %d, over the full list's %d = %d",
							trial, step, len(ga.watch), got, len(watch), want)
					}
				}
			} else {
				unsettled++
			}
			before := 0
			for _, th := range ma.Threads() {
				before += th.Migrations()
			}
			ma.Step()
			mb.Step()
			steps++
			after := 0
			for k, ta := range ma.Threads() {
				tb := mb.Threads()[k]
				if ta.Core() != tb.Core() || ta.Migrations() != tb.Migrations() ||
					math.Float64bits(ta.Remaining()) != math.Float64bits(tb.Remaining()) ||
					math.Float64bits(ga.loads[k]) != math.Float64bits(gb.loads[k]) {
					t.Fatalf("trial %d step %d thread %d: core %d, %d moves, remaining %v, load %v; the full scans' %d, %d, %v, %v",
						trial, step, k, ta.Core(), ta.Migrations(), ta.Remaining(), ga.loads[k], tb.Core(), tb.Migrations(), tb.Remaining(), gb.loads[k])
				}
				after += ta.Migrations()
			}
			if after > before {
				moved++
			}
		}
	}
	if unsettled < steps/20 || unsettled == steps || moved < steps/20 || watched == refWatched {
		t.Fatalf("%d Steps: %d unsettled, %d moved a thread, %d of the full lists' %d lanes watched: the inputs no longer reach both verdicts, moves and settled lanes",
			steps, unsettled, moved, watched, refWatched)
	}
	t.Logf("%d Steps: %d unsettled, %d moved a thread, %d of the full lists' %d lanes watched", steps, unsettled, moved, watched, refWatched)
}
