// Package gts models the Linux HMP Global Task Scheduling (GTS) scheduler,
// the kernel scheduler of the paper's evaluation platform (Linux 3.10.51)
// and the scheduler underneath the baseline, static-optimal, and CONS-I
// versions.
//
// GTS tracks a decayed per-thread load average and migrates threads between
// clusters with two thresholds: a thread on the little cluster whose load
// exceeds the up-migration threshold moves to the big cluster, and a thread
// on the big cluster whose load falls below the down-migration threshold
// moves to the little cluster. Within a cluster, runnable threads are
// balanced across cores.
//
// The model reproduces the behaviour the paper leans on: CPU-intensive
// multithreaded applications saturate their load averages, so GTS piles
// every thread onto the big cluster and leaves the little cores idle even
// when the big cluster is over-committed ("the Linux HMP scheduler does not
// schedule like that", §4.1.1).
package gts

import (
	"math"

	"repro/internal/hmp"
	"repro/internal/sim"
)

// LoadScale is the fixed-point load unit of the load tracker (a fully busy
// thread converges to a load of 1024, as in the kernel).
const LoadScale = 1024.0

// Scheduler is the GTS placement policy. It implements sim.Placer.
type Scheduler struct {
	// Up and Down are the up/down migration thresholds on the 0..1024 load
	// scale. Kernel defaults for big.LITTLE MP were ~700 and ~256.
	Up, Down float64

	// PeriodTicks is how many ticks pass between migration passes.
	PeriodTicks int

	// Decay is the per-tick geometric decay of the load average; the
	// default corresponds to a ~32 ms half-life at 1 ms ticks.
	Decay float64

	// Allowed is the global cpuset: cores outside it are invisible to GTS.
	// The static-optimal and CONS-I versions restrict it to the allocated
	// cores of the chosen system state.
	Allowed hmp.CPUMask

	// UpQueueLimit gates up-migration: a hot little thread moves to the big
	// cluster only while the destination queue stays within this limit.
	// The default (2) lets CPU-bound threads pile two-deep onto big cores
	// while the little cores idle — the big-cluster bias of §4.1.1.
	UpQueueLimit int

	// PullThresholdLittle and PullThresholdBig gate idle balancing: an idle
	// core pulls from a run queue at least this long. Little cores are
	// reluctant (default 3: spill only under heavy overcommit, as GTS's
	// restricted down-balancing was); big cores pull normally (default 2).
	PullThresholdLittle int
	PullThresholdBig    int

	plat   *hmp.Platform
	loads  []float64
	ticks  int
	counts []int
	online hmp.CPUMask // machine hotplug state, refreshed every Place
}

// New returns a GTS scheduler with kernel-flavoured defaults, allowed to use
// every core of the platform.
func New(plat *hmp.Platform) *Scheduler {
	return &Scheduler{
		Up:                  700,
		Down:                256,
		PeriodTicks:         4,
		Decay:               math.Pow(0.5, 1.0/32),
		Allowed:             hmp.AllCPUs(plat),
		UpQueueLimit:        2,
		PullThresholdLittle: 3,
		PullThresholdBig:    2,
		plat:                plat,
		online:              hmp.AllCPUs(plat),
	}
}

// SetAllowed restricts GTS to the given cpuset. An empty mask panics: the
// machine would be unschedulable.
func (g *Scheduler) SetAllowed(mask hmp.CPUMask) {
	if mask == 0 {
		panic("gts: empty allowed cpuset")
	}
	g.Allowed = mask
}

// Load returns the current load average of a thread (0..1024). New threads
// start fully loaded, as freshly woken tasks do in the kernel.
func (g *Scheduler) Load(t *sim.Thread) float64 {
	if t.Global >= len(g.loads) {
		return LoadScale
	}
	return g.loads[t.Global]
}

// Place implements sim.Placer. It deliberately does NOT implement
// sim.SteadyPlacer: the migration pass fires on a count of Place
// invocations (g.ticks below), so even a Place call that moves nothing
// advances internal phase — skipping it would shift every later migration
// pass. Machines driven by the GTS model therefore always step in lockstep.
func (g *Scheduler) Place(m *sim.Machine) {
	g.online = m.OnlineMask()
	threads := m.Threads()
	for len(g.loads) < len(threads) {
		g.loads = append(g.loads, LoadScale)
	}
	// Update load averages.
	for _, t := range threads {
		target := 0.0
		if t.RanLastTick() {
			target = LoadScale
		}
		g.loads[t.Global] = g.loads[t.Global]*g.Decay + target*(1-g.Decay)
	}

	nc := m.Platform().TotalCores()
	if cap(g.counts) < nc {
		g.counts = make([]int, nc)
	}
	counts := g.counts[:nc]
	for i := range counts {
		counts[i] = 0
	}
	for _, t := range threads {
		if t.Runnable() && t.Core() >= 0 && g.permitted(t, t.Core()) {
			counts[t.Core()]++
		}
	}

	// Repair threads placed outside their permitted set.
	for _, t := range threads {
		if !t.Runnable() {
			continue
		}
		if t.Core() >= 0 && g.permitted(t, t.Core()) {
			continue
		}
		if cpu := g.leastLoaded(m, t, counts, hmp.CPUMask(math.MaxUint64)); cpu >= 0 {
			m.Migrate(t, cpu)
			counts[cpu]++
		}
	}

	g.ticks++
	if g.ticks%g.PeriodTicks == 0 {
		g.migrationPass(m, threads, counts)
	}
	g.balanceClusters(m, threads, counts)
}

func (g *Scheduler) permitted(t *sim.Thread, cpu int) bool {
	return t.Affinity().Has(cpu) && g.Allowed.Has(cpu) && g.online.Has(cpu)
}

// leastLoaded returns the permitted CPU (further restricted by `within`)
// with the fewest runnable threads, or -1.
func (g *Scheduler) leastLoaded(m *sim.Machine, t *sim.Thread, counts []int, within hmp.CPUMask) int {
	best := -1
	for cpu := 0; cpu < len(counts); cpu++ {
		if !g.permitted(t, cpu) || !within.Has(cpu) {
			continue
		}
		if best < 0 || counts[cpu] < counts[best] {
			best = cpu
		}
	}
	return best
}

// migrationPass applies the up/down threshold rules, then one idle-balance
// sweep. Hot little threads migrate up eagerly (piling two-deep onto the
// big cores while the little cores idle — the paper's §4.1.1 observation),
// but not past UpQueueLimit, which prevents ping-pong against the reluctant
// little-ward idle balance under heavy overcommit.
func (g *Scheduler) migrationPass(m *sim.Machine, threads []*sim.Thread, counts []int) {
	plat := m.Platform()
	bigMask := hmp.ClusterMask(plat, hmp.Big)
	littleMask := hmp.ClusterMask(plat, hmp.Little)
	for _, t := range threads {
		if !t.Runnable() || t.Core() < 0 {
			continue
		}
		load := g.loads[t.Global]
		switch plat.ClusterOf(t.Core()) {
		case hmp.Little:
			if load > g.Up {
				cpu := g.leastLoaded(m, t, counts, bigMask)
				if cpu >= 0 && counts[cpu]+1 <= g.UpQueueLimit {
					counts[t.Core()]--
					m.Migrate(t, cpu)
					counts[cpu]++
				}
			}
		case hmp.Big:
			if load < g.Down {
				if cpu := g.leastLoaded(m, t, counts, littleMask); cpu >= 0 {
					counts[t.Core()]--
					m.Migrate(t, cpu)
					counts[cpu]++
				}
			}
		}
	}
	g.idleBalance(m, threads, counts)
}

// idleBalance pulls one runnable thread onto each idle allowed core from the
// longest permitted run queue, provided that queue reaches the pulling
// cluster's threshold. Little cores pull reluctantly (only under heavy
// big-cluster overcommit), mirroring GTS's restricted down-balancing.
func (g *Scheduler) idleBalance(m *sim.Machine, threads []*sim.Thread, counts []int) {
	plat := g.plat
	for cpu := 0; cpu < len(counts); cpu++ {
		if counts[cpu] != 0 || !g.Allowed.Has(cpu) || !g.online.Has(cpu) {
			continue
		}
		threshold := g.PullThresholdBig
		if plat.ClusterOf(cpu) == hmp.Little {
			threshold = g.PullThresholdLittle
		}
		var victim *sim.Thread
		for _, t := range threads {
			if !t.Runnable() || t.Core() < 0 || t.Core() == cpu {
				continue
			}
			if counts[t.Core()] < threshold || !g.permitted(t, cpu) {
				continue
			}
			if victim == nil || counts[t.Core()] > counts[victim.Core()] {
				victim = t
			}
		}
		if victim != nil {
			counts[victim.Core()]--
			m.Migrate(victim, cpu)
			counts[cpu]++
		}
	}
}

// balanceClusters does one intra-cluster load-balance sweep with hysteresis.
func (g *Scheduler) balanceClusters(m *sim.Machine, threads []*sim.Thread, counts []int) {
	plat := m.Platform()
	for _, t := range threads {
		if !t.Runnable() || t.Core() < 0 {
			continue
		}
		cur := t.Core()
		k := plat.ClusterOf(cur)
		first := plat.FirstCPU(k)
		best := cur
		for cpu := first; cpu < first+plat.Clusters[k].Cores; cpu++ {
			if cpu == cur || !g.permitted(t, cpu) {
				continue
			}
			if counts[cpu] < counts[best]-1 {
				best = cpu
			}
		}
		if best != cur {
			counts[cur]--
			counts[best]++
			m.Migrate(t, best)
		}
	}
}
