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
//
// The scheduler implements sim.SteadyPlacer, so a GTS-placed machine
// advances in the simulator's certified windows like a mask-balanced one.
// Its Place keeps per-call state — the load averages and the count of
// calls that times the migration pass — which its ticker advances over a
// whole window at once. The ticker skips every settled thread, one whose
// load a tick leaves unchanged and whose run flag the window keeps, and
// advances the other loads in two groups that each add one constant term
// after the window's first tick: the threads that run, and those that do
// not, whose ticks are bare multiplies. Each group runs four threads at a
// time, so their independent recurrences overlap, and checks for their
// fixed points once per migration period or 32-tick chunk; the window ends
// before any tick whose Place would move a thread, so every decision is
// the one per-tick stepping makes. Place and Settled reach their no-op
// verdicts from per-core minima before they look at a thread: the big
// cores with room for an up-migration, and each cluster's lightest usable
// queue.
package gts

import (
	"math"

	"repro/internal/hmp"
	"repro/internal/sim"
)

// LoadScale is the fixed-point load unit of the load tracker (a fully busy
// thread converges to a load of 1024, as in the kernel).
const LoadScale = 1024.0

// Scheduler is the GTS placement policy. It implements sim.SteadyPlacer.
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

	// watch and lanes are window scratch, both sized by Settled: the
	// runnable threads whose threshold move the window's frozen queue
	// counts permit and whose load can cross (see Settled), and every
	// thread's recurrence for SteadyAdvance.
	watch []lane
	lanes []lane
}

// lane is one thread's load recurrence over a window: whether the thread
// ran in the tick before the window (ran0, which the window's first tick
// feeds in) and whether it runs in the window (ran, which every later tick
// feeds in). On the watch list, up tells which threshold decides its move:
// Up for a little thread, Down for a big one.
type lane struct {
	id            int
	ran0, ran, up bool
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

// Place implements sim.Placer: it updates every thread's load average,
// repairs runnable threads placed outside their permitted set, runs the
// threshold migration pass (and the idle balance) every PeriodTicks calls,
// and balances within each cluster. Inside a window certified by Settled
// the call would be a no-op apart from the load averages and the call
// counter, which SteadyAdvance advances over the whole window instead.
func (g *Scheduler) Place(m *sim.Machine) {
	threads := m.Threads()
	for len(g.loads) < len(threads) {
		g.loads = append(g.loads, LoadScale)
	}
	d, gain := g.Decay, g.gain()
	for _, t := range threads {
		g.loads[t.Global] = decay(g.loads[t.Global], d, term(t.RanLastTick(), gain))
	}

	usable := g.Allowed & m.OnlineMask()
	counts, clean := g.queueCounts(m, threads, usable)

	// Repair threads placed outside their permitted set (none is when the
	// counts are clean).
	if !clean {
		for _, t := range threads {
			if !t.Runnable() || (t.Core() >= 0 && permitted(t, t.Core(), usable)) {
				continue
			}
			if cpu := leastLoaded(t, counts, usable); cpu >= 0 {
				m.Migrate(t, cpu)
				counts[cpu]++
			}
		}
	}

	g.ticks++
	if g.ticks%g.PeriodTicks == 0 {
		g.migrationPass(m, threads, counts, usable)
	}
	g.balanceClusters(m, threads, counts, usable)
}

// decay is one tick of a thread's load average: load·d + c, a geometric
// step toward LoadScale (c is gain) if the thread ran in the previous tick,
// toward zero (c is 0) if not. Place and the ticker's recurrences all call
// it, so a window evaluates the very float expression the per-tick path
// does. The conversion of the product is the language's barrier against
// fusing it with the addition: without it a compiler may emit one fused
// multiply-add (arm64 does), which rounds once instead of twice.
func decay(load, d, c float64) float64 { return float64(load*d) + c }

// gain is the constant term of a tick after one the thread ran in:
// LoadScale·(1−Decay), a product kept unfused like decay's.
func (g *Scheduler) gain() float64 { return float64(LoadScale * (1 - g.Decay)) }

// term is the constant term of a tick after one in which the thread ran
// (gain) or did not (0).
func term(ran bool, gain float64) float64 {
	if ran {
		return gain
	}
	return 0
}

// queueCounts fills the per-core scratch counts: the runnable threads on
// each core that are permitted to run there. clean reports that every
// runnable thread is permitted where it sits. That holds exactly when no
// runnable thread is misplaced (each sits on a core of its affinity) and
// every non-empty run queue is usable, and then the counts are the
// machine's O(1) run-queue lengths, as the mask balancer reads them.
// Otherwise they come from a walk over every thread (countQueues).
func (g *Scheduler) queueCounts(m *sim.Machine, threads []*sim.Thread, usable hmp.CPUMask) (counts []int, clean bool) {
	nc := m.Platform().TotalCores()
	if cap(g.counts) < nc {
		g.counts = make([]int, nc)
	}
	counts = g.counts[:nc]
	if m.Misplaced() == 0 {
		clean = true
		for cpu := range counts {
			counts[cpu] = m.RunQueueLen(cpu)
			clean = clean && (counts[cpu] == 0 || usable.Has(cpu))
		}
		if clean {
			return counts, true
		}
	}
	return countQueues(counts, threads, usable), false
}

// countQueues fills counts with the runnable threads on each core that are
// permitted to run there, walking every thread.
func countQueues(counts []int, threads []*sim.Thread, usable hmp.CPUMask) []int {
	for i := range counts {
		counts[i] = 0
	}
	for _, t := range threads {
		if t.Runnable() && t.Core() >= 0 && permitted(t, t.Core(), usable) {
			counts[t.Core()]++
		}
	}
	return counts
}

// permitted reports whether t may run on cpu: inside its affinity and the
// usable set (the allowed cpuset's online cores).
func permitted(t *sim.Thread, cpu int, usable hmp.CPUMask) bool {
	return (t.Affinity() & usable).Has(cpu)
}

// leastLoaded returns the CPU of t's affinity inside within with the fewest
// runnable threads, or -1.
func leastLoaded(t *sim.Thread, counts []int, within hmp.CPUMask) int {
	mask := t.Affinity() & within
	best := -1
	for cpu := 0; cpu < len(counts); cpu++ {
		if !mask.Has(cpu) {
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
// little-ward idle balance under heavy overcommit. The pass keeps the big
// cores with room under that limit (see room) up to date across its moves,
// so a thread whose affinity misses every destination costs one mask test.
func (g *Scheduler) migrationPass(m *sim.Machine, threads []*sim.Thread, counts []int, usable hmp.CPUMask) {
	plat := m.Platform()
	big := usable & hmp.ClusterMask(plat, hmp.Big)
	little := usable & hmp.ClusterMask(plat, hmp.Little)
	room := g.room(counts, big)
	for _, t := range threads {
		if !t.Runnable() || t.Core() < 0 {
			continue
		}
		cur := t.Core()
		up := plat.ClusterOf(cur) == hmp.Little
		dest := destinations(up, little, room)
		if t.Affinity()&dest == 0 || !g.crosses(g.loads[t.Global], up) {
			continue
		}
		cpu := leastLoaded(t, counts, dest)
		counts[cur]--
		m.Migrate(t, cpu)
		counts[cpu]++
		room = g.refit(g.refit(room, big, counts, cur), big, counts, cpu)
	}
	g.idleBalance(m, threads, counts, usable)
}

// room returns the cores an up-migration may land on under counts: the
// usable big cores (big) whose queue stays within UpQueueLimit with one
// more thread.
func (g *Scheduler) room(counts []int, big hmp.CPUMask) hmp.CPUMask {
	var room hmp.CPUMask
	for cpu := range counts {
		room = g.refit(room, big, counts, cpu)
	}
	return room
}

// refit returns room with cpu's membership recomputed from counts.
func (g *Scheduler) refit(room, big hmp.CPUMask, counts []int, cpu int) hmp.CPUMask {
	if big.Has(cpu) && counts[cpu]+1 <= g.UpQueueLimit {
		return room.Set(cpu)
	}
	return room.Clear(cpu)
}

// destinations returns the cores the migration pass may move a crossing
// thread to: room for a little thread (up), the usable little cores for a
// big one. A thread whose affinity misses them does not move. Otherwise
// leastLoaded over them picks the core the pass moves it to; for a little
// thread that is the least loaded big core of its affinity, which has room
// whenever any of them has.
func destinations(up bool, little, room hmp.CPUMask) hmp.CPUMask {
	if up {
		return room
	}
	return little
}

// crosses reports whether a load is past its thread's migration threshold:
// above Up for a little thread (up), below Down for a big one.
func (g *Scheduler) crosses(load float64, up bool) bool {
	if up {
		return load > g.Up
	}
	return load < g.Down
}

// idleBalance pulls one runnable thread onto each idle usable core from the
// longest permitted run queue, provided that queue reaches the pulling
// cluster's threshold. Little cores pull reluctantly (only under heavy
// big-cluster overcommit), mirroring GTS's restricted down-balancing.
func (g *Scheduler) idleBalance(m *sim.Machine, threads []*sim.Thread, counts []int, usable hmp.CPUMask) {
	if !g.pulls(counts) {
		return
	}
	for cpu := 0; cpu < len(counts); cpu++ {
		if counts[cpu] != 0 || !usable.Has(cpu) {
			continue
		}
		if victim := g.idleVictim(cpu, threads, counts, usable); victim != nil {
			counts[victim.Core()]--
			m.Migrate(victim, cpu)
			counts[cpu]++
		}
	}
}

// pulls reports whether any queue reaches a pull threshold; without one the
// idle balance has no victim anywhere.
func (g *Scheduler) pulls(counts []int) bool {
	threshold := min(g.PullThresholdLittle, g.PullThresholdBig)
	for _, n := range counts {
		if n >= threshold {
			return true
		}
	}
	return false
}

// idleVictim returns the thread the idle core cpu pulls: the runnable
// thread, permitted on cpu, from the longest other queue that reaches cpu's
// cluster threshold (the first such thread on ties), or nil.
func (g *Scheduler) idleVictim(cpu int, threads []*sim.Thread, counts []int, usable hmp.CPUMask) *sim.Thread {
	threshold := g.PullThresholdBig
	if g.plat.ClusterOf(cpu) == hmp.Little {
		threshold = g.PullThresholdLittle
	}
	var victim *sim.Thread
	for _, t := range threads {
		if !t.Runnable() || t.Core() < 0 || t.Core() == cpu {
			continue
		}
		if counts[t.Core()] < threshold || !permitted(t, cpu, usable) {
			continue
		}
		if victim == nil || counts[t.Core()] > counts[victim.Core()] {
			victim = t
		}
	}
	return victim
}

// balanceClusters does one intra-cluster load-balance sweep with
// hysteresis. When every cluster is level (see floors) no thread has a core
// two lighter, so the sweep is skipped outright. The sweep's moves only
// drain queues at least two above their cluster's floor, so each floor
// stays a lower bound on its cluster's usable queues throughout.
func (g *Scheduler) balanceClusters(m *sim.Machine, threads []*sim.Thread, counts []int, usable hmp.CPUMask) {
	plat := m.Platform()
	lo, even := floors(plat, counts, usable)
	if even {
		return
	}
	for _, t := range threads {
		if !t.Runnable() || t.Core() < 0 {
			continue
		}
		if cur, best := t.Core(), balanceTarget(plat, t, counts, usable, &lo); best != cur {
			counts[cur]--
			counts[best]++
			m.Migrate(t, best)
		}
	}
}

// balanceTarget returns the core of t's cluster the sweep moves t to: the
// last permitted core that is two threads lighter than the best so far, or
// t's own core when none is. lo bounds each cluster's usable queues from
// below (see floors), so a thread at most one above its cluster's bound
// stays without a scan.
func balanceTarget(plat *hmp.Platform, t *sim.Thread, counts []int, usable hmp.CPUMask, lo *[hmp.NumClusters]int) int {
	cur := t.Core()
	k := plat.ClusterOf(cur)
	if counts[cur]-1 <= lo[k] {
		return cur
	}
	first := plat.FirstCPU(k)
	mask := t.Affinity() & usable
	best := cur
	for cpu := first; cpu < first+plat.Clusters[k].Cores; cpu++ {
		if cpu == cur || !mask.Has(cpu) {
			continue
		}
		if counts[cpu] < counts[best]-1 {
			best = cpu
		}
	}
	return best
}

// floors returns each cluster's lightest usable queue (MaxInt for a
// cluster with no usable core), and whether the intra-cluster sweep is
// certain to move nothing: in every cluster the heaviest queue is within
// one thread of that floor. Every core the sweep may choose is usable, so
// no thread then finds one two lighter than its own.
func floors(plat *hmp.Platform, counts []int, usable hmp.CPUMask) (lo [hmp.NumClusters]int, even bool) {
	even = true
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		first := plat.FirstCPU(k)
		lo[k] = math.MaxInt
		hi := 0
		for cpu := first; cpu < first+plat.Clusters[k].Cores; cpu++ {
			n := counts[cpu]
			hi = max(hi, n)
			if usable.Has(cpu) {
				lo[k] = min(lo[k], n)
			}
		}
		if hi-lo[k] > 1 {
			even = false
		}
	}
	return lo, even
}

// Settled implements sim.SteadyPlacer. Within a window the runnable set,
// placement, affinity, the online mask and the allowed cpuset are frozen,
// so the queue counts Place computes are too, and every Place decision but
// the threshold moves depends only on them: Settled declines when a
// runnable thread needs repair or when the idle balance or the
// intra-cluster sweep would move one, each replayed read-only on the counts
// Place would compute (with the machine's online mask, since Place reads
// it afresh) through the rules Place applies (floors and balanceTarget,
// room and destinations). A threshold move depends on the evolving load as
// well; Settled records the runnable threads whose move the counts permit
// and whose load can cross, and the returned ticker (g itself) ends the
// window before the first migration-pass tick at which one of them crosses
// its threshold. A settled lane (see settled) keeps its load for the whole
// window, so it is watched only when that load already crosses. Settled
// writes only its scratch: that watch list, with each thread's run flags
// for the window (RanLastTick, and RunsInWindow, which the machine has
// settled before it asks the placer).
func (g *Scheduler) Settled(m *sim.Machine) (sim.SteadyTicker, bool) {
	threads := m.Threads()
	if len(g.loads) < len(threads) {
		return nil, false
	}
	if cap(g.watch) < len(threads) {
		g.watch = make([]lane, 0, len(threads))
		g.lanes = make([]lane, len(threads))
	}
	usable := g.Allowed & m.OnlineMask()
	counts, clean := g.queueCounts(m, threads, usable)
	if !clean {
		return nil, false // a runnable thread needs repair
	}
	plat := m.Platform()
	little := usable & hmp.ClusterMask(plat, hmp.Little)
	room := g.room(counts, usable&hmp.ClusterMask(plat, hmp.Big))
	lo, even := floors(plat, counts, usable)
	d, gain := g.Decay, g.gain()
	g.watch = g.watch[:0]
	for _, t := range threads {
		if !t.Runnable() {
			continue
		}
		cur := t.Core()
		if !even && balanceTarget(plat, t, counts, usable, &lo) != cur {
			return nil, false
		}
		up := plat.ClusterOf(cur) == hmp.Little
		if t.Affinity()&destinations(up, little, room) == 0 {
			continue
		}
		if l := (lane{id: t.Global, ran0: t.RanLastTick(), ran: t.RunsInWindow(), up: up}); g.watched(l, d, gain) {
			g.watch = append(g.watch, l)
		}
	}
	if g.pulls(counts) {
		for cpu, n := range counts {
			if n == 0 && usable.Has(cpu) && g.idleVictim(cpu, threads, counts, usable) != nil {
				return nil, false
			}
		}
	}
	return g, true
}

// SteadyBound implements sim.SteadyTicker: it runs each watched thread's
// load recurrence over the next n ticks, as Place's update would (the
// first tick feeds RanLastTick, the later ones RunsInWindow, both recorded
// by Settled), and returns the ticks before the first migration-pass tick
// at which one of them crosses its threshold, so that tick's pass runs
// through Step. Settled left off every thread the counts forbid to move
// and every settled one whose load does not cross.
func (g *Scheduler) SteadyBound(m *sim.Machine, n int64) int64 { return g.bound(g.watch, n) }

// SteadyAdvance implements sim.SteadyTicker: it advances every thread's
// load over n ticks (see advance), in the lanes scratch Settled sized, and
// counts the skipped Place calls.
func (g *Scheduler) SteadyAdvance(m *sim.Machine, n int64) {
	threads := m.Threads()
	ls := g.lanes[:len(threads)]
	for i, t := range threads {
		ls[i] = lane{id: t.Global, ran0: t.RanLastTick(), ran: t.RunsInWindow()}
	}
	g.advance(ls, n)
	g.ticks += int(n)
}

// advance runs every lane's load recurrence over n ticks, reordering ls.
// A settled lane keeps its load, so it is skipped. Every other lane takes
// the window's first tick here; its remaining n−1 ticks add one constant
// term, the same for every lane of a group: the lanes that run in the
// window (gain) are gathered at the front of ls, those that do not (0) at
// the back, and each group runs through its own kernel.
func (g *Scheduler) advance(ls []lane, n int64) {
	d, gain := g.Decay, g.gain()
	// ls[:run] runs, ls[idle:] does not, ls[i:idle] is unread.
	run, idle := 0, len(ls)
	for i := 0; i < idle; {
		l := ls[i]
		if g.settled(l, d, gain) {
			i++
			continue
		}
		g.loads[l.id] = decay(g.loads[l.id], d, term(l.ran0, gain))
		if l.ran {
			ls[run] = l
			run++
			i++
		} else {
			idle--
			ls[i], ls[idle] = ls[idle], l
		}
	}
	if n > 1 {
		g.advanceRunning(ls[:run], n-1, gain)
		g.advanceIdle(ls[idle:], n-1)
	}
}

// settled reports whether lane l's load is the same after every tick of
// the window: the thread runs in the window as it ran in the tick before
// it, so every tick adds the same constant term, and one tick with that
// term leaves the load unchanged.
func (g *Scheduler) settled(l lane, d, gain float64) bool {
	load := g.loads[l.id]
	return l.ran0 == l.ran && decay(load, d, term(l.ran, gain)) == load
}

// watched reports whether SteadyBound must follow lane l: unless l is
// settled, its load moves in the window and may cross its threshold; a
// settled lane's load crosses at every migration pass or at none.
func (g *Scheduler) watched(l lane, d, gain float64) bool {
	return !g.settled(l, d, gain) || g.crosses(g.loads[l.id], l.up)
}

// Four recurrences at a time: a load's tick is a multiply and an add (or,
// for a thread that does not run, a bare multiply) that wait on the
// previous tick, so one recurrence leaves the floating-point units idle
// most of the time, and four independent ones, held in registers, fill
// them. A thread that runs reaches its fixed point (1024 less 23 ulps)
// within about 1.5k ticks; one that does not decays for about 34.5k
// ticks, into the subnormals, before a tick leaves its load unchanged.
// Past a fixed point every tick is a no-op, so a group stops once all
// four of its loads have reached theirs, and the check for it runs once
// per migration period (bound) or 32-tick chunk (advanceRunning,
// advanceIdle) rather than every tick. A group short of four repeats its
// first lane: the recurrences are latency-bound, so the padding lanes run
// in the shadow of the first.

// quad returns the first four lanes of ls, the first repeated where ls is
// shorter.
func quad(ls []lane) (a, b, c, e lane) {
	a, b, c, e = ls[0], ls[0], ls[0], ls[0]
	if len(ls) > 1 {
		b = ls[1]
	}
	if len(ls) > 2 {
		c = ls[2]
	}
	if len(ls) > 3 {
		e = ls[3]
	}
	return a, b, c, e
}

// start returns a lane's load after the window's first tick and the
// constant term every later tick adds.
func (g *Scheduler) start(l lane, d, gain float64) (load, c float64) {
	return decay(g.loads[l.id], d, term(l.ran0, gain)), term(l.ran, gain)
}

// bound returns how many of the next n ticks pass before the first
// migration pass that finds one of the lanes' loads past its threshold, or
// n when none does.
func (g *Scheduler) bound(ls []lane, n int64) int64 {
	period := int64(g.PeriodTicks)
	first := period - int64(g.ticks)%period // the window's first migration-pass tick
	for i := 0; i < len(ls) && first <= n; i += 4 {
		n = g.bound4(ls[i:], first, n)
	}
	return n
}

// bound4 is bound over the first four lanes of ls.
func (g *Scheduler) bound4(ls []lane, first, n int64) int64 {
	a, b, c, e := quad(ls)
	d, gain, period := g.Decay, g.gain(), int64(g.PeriodTicks)
	la, ca := g.start(a, d, gain)
	lb, cb := g.start(b, d, gain)
	lc, cc := g.start(c, d, gain)
	le, ce := g.start(e, d, gain)
	pass := first
	if pass == 1 {
		if g.crosses(la, a.up) || g.crosses(lb, b.up) || g.crosses(lc, c.up) || g.crosses(le, e.up) {
			return 0
		}
		pass += period
	}
	// Ticks 2 on feed the same constant, so a tick that leaves every load
	// unchanged marks four fixed points.
	for j := int64(1); pass <= n; pass += period {
		for ; j < pass-1; j++ {
			la, lb, lc, le = decay(la, d, ca), decay(lb, d, cb), decay(lc, d, cc), decay(le, d, ce)
		}
		pa, pb, pc, pe := la, lb, lc, le
		la, lb, lc, le = decay(la, d, ca), decay(lb, d, cb), decay(lc, d, cc), decay(le, d, ce)
		j++
		if g.crosses(la, a.up) || g.crosses(lb, b.up) || g.crosses(lc, c.up) || g.crosses(le, e.up) {
			return pass - 1
		}
		if la == pa && lb == pb && lc == pc && le == pe {
			return n
		}
	}
	return n
}

// advanceChunk is how many ticks the advance kernels run between
// fixed-point checks.
const advanceChunk = 32

// advanceRunning runs n ticks of the load recurrence of lanes that each
// tick add c.
func (g *Scheduler) advanceRunning(ls []lane, n int64, c float64) {
	d := g.Decay
	for i := 0; i < len(ls); i += 4 {
		a, b, e, f := quad(ls[i:])
		la, lb, le, lf := g.loads[a.id], g.loads[b.id], g.loads[e.id], g.loads[f.id]
		for j := int64(0); j < n; {
			for end := min(j+advanceChunk, n) - 1; j < end; j++ {
				la, lb, le, lf = decay(la, d, c), decay(lb, d, c), decay(le, d, c), decay(lf, d, c)
			}
			pa, pb, pe, pf := la, lb, le, lf
			la, lb, le, lf = decay(la, d, c), decay(lb, d, c), decay(le, d, c), decay(lf, d, c)
			j++
			if la == pa && lb == pb && le == pe && lf == pf {
				break
			}
		}
		// A repeated lane writes its first lane's value back to it.
		g.loads[a.id], g.loads[b.id], g.loads[e.id], g.loads[f.id] = la, lb, le, lf
	}
}

// advanceIdle runs n ticks of the load recurrence of lanes that do not
// run. Such a tick adds zero, and adding zero to a non-negative load
// leaves it unchanged, so each tick is a bare multiply, half the latency
// of decay's multiply-add chain.
func (g *Scheduler) advanceIdle(ls []lane, n int64) {
	d := g.Decay
	for i := 0; i < len(ls); i += 4 {
		a, b, e, f := quad(ls[i:])
		la, lb, le, lf := g.loads[a.id], g.loads[b.id], g.loads[e.id], g.loads[f.id]
		for j := int64(0); j < n; {
			for end := min(j+advanceChunk, n) - 1; j < end; j++ {
				la, lb, le, lf = la*d, lb*d, le*d, lf*d
			}
			pa, pb, pe, pf := la, lb, le, lf
			la, lb, le, lf = la*d, lb*d, le*d, lf*d
			j++
			if la == pa && lb == pb && le == pe && lf == pf {
				break
			}
		}
		g.loads[a.id], g.loads[b.id], g.loads[e.id], g.loads[f.id] = la, lb, le, lf
	}
}
