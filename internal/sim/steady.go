package sim

import (
	"slices"

	"repro/internal/hmp"
)

// Window advancement: a machine whose runnable threads are all mid-unit —
// nothing completes, nothing migrates, nothing actuates — repeats the same
// tick over and over, differing only in the float accumulators and in the
// private per-tick state of its placer and daemons (a load average, a call
// counter, an integrator), which their tickers advance. An idle or crashed
// machine is the same case with an empty plan: no thread runs, so only the
// clock and the energy sums move. SteadyUntil certifies a window in which
// that repetition is provable; RunSteady executes it in one jump, and
// FastForwardCached executes an empty one. The jump skips the runnable
// scan, placer dispatch, daemon walk, and trace checks that are provably
// no-ops, bounds the window at the first tick on which a unit would
// complete or a ticker would act, and gives each float accumulator its
// value after n ticks from its bit pattern (see accum.go), at a cost of a
// few real additions per binade the accumulator crosses instead of one per
// tick. A window that stops before such a tick knows it ends the window,
// so RunUntilCached steps it without certifying again; a machine then
// pays about two Steps per window (that edge, and the tick that warms the
// power memo it left cold). This is an execution strategy, not a semantic
// change — every observable state is bit-for-bit what the equivalent
// sequence of Step calls would produce, and the general per-tick loop
// survives as the reference the golden digests and the equivalence suites
// pin it to.

// SteadyTicker is the bulk half of a SteadyDaemon or SteadyPlacer whose
// calls inside a certified window are internal-only (they advance private
// state — an integrator, a load average, a call counter — without touching
// the machine). RunSteady calls each method once per window: SteadyBound
// before any of the window's ticks applies, SteadyAdvance before the clock
// and the run stamps move, so both see the clock and RanLastTick as they
// stood at the window's start (RanLastTick then reports the tick before the
// window; from the window's second tick on, a thread has run in the
// previous tick exactly when Thread.RunsInWindow reports it). Neither may
// read the float accumulators the window moves. SteadyBound(m, n) returns
// how many of the next n ticks, 0 through n, the ticker absorbs: the tick
// after them is the first whose Tick (or Place) would not stay
// internal-only, and it runs through the general Step. SteadyBound must be
// pure apart from private scratch. Once every ticker of the window has
// bounded it, SteadyAdvance(m, k) replays exactly the internal effects of k
// calls, with k no larger than the ticker's own bound (smaller when another
// ticker bound the window tighter); a ticker may commit scratch its
// SteadyBound left for that k.
type SteadyTicker interface {
	SteadyBound(m *Machine, n int64) int64
	SteadyAdvance(m *Machine, n int64)
}

// SteadyEntry is a daemon's declaration of what its per-tick work amounts to
// inside a window: a fixed overhead charge (Charge µs against ChargeCPU per
// tick, exactly what its Tick would ChargeOverhead), an optional per-tick
// Ticker for internal state that must advance, and an optional wake bound
// Until: the daemon's Tick may do anything on the first tick starting at or
// after Until, so the window ends before that tick. A zero Until means no
// bound, and a zero entry declares every in-window Tick a pure no-op. The
// Ticker advances in bulk, once per window (see SteadyTicker).
type SteadyEntry struct {
	ChargeCPU int
	Charge    Time
	Ticker    SteadyTicker
	Until     Time
}

// SteadyDaemon is the opt-in contract that lets a Daemon's machine advance
// in windows instead of tick by tick. When SteadyBegin returns ok, every
// Tick call during the window must reduce to the declared entry: charge
// exactly (ChargeCPU, Charge) and otherwise mutate nothing the machine or a
// later observer can see — no actuation (DVFS, caps, hotplug, migration), no
// trace emission, no decision, no internal phase advance (a daemon that
// counts its own Tick calls must advance the count through the entry's
// Ticker). SteadyBegin itself must be pure; it is consulted once per
// window, so any condition it certifies must be invariant while the
// runnable set, placement, platform state, and heartbeat counts are frozen
// (which the machine-side certification guarantees for the window).
// Returning !ok is always safe: the next tick runs through Step. Daemons
// that do not implement SteadyDaemon pin their machine to per-tick
// stepping, which is always correct.
type SteadyDaemon interface {
	Daemon
	SteadyBegin(m *Machine) (SteadyEntry, bool)
}

// SteadyPlacer is the opt-in contract that lets a Placer's machine advance
// in windows: Settled reports whether every Place call in the window is
// certain to move no thread — nothing runnable, or every thread permitted
// where it is and no balancing move available — while runnability,
// placement, affinity, and the online mask are all frozen. Settled runs
// after the rest of the certification has passed, so Thread.RunsInWindow
// already answers for the window. A placer whose
// Place keeps per-call state (gts.Scheduler's load averages and its
// migration-pass counter) returns a ticker that advances that state over
// the window's ticks and ends the window before a tick whose Place would
// move a thread; a stateless placer (MaskBalancer) returns a nil ticker.
// Settled itself must be pure apart from scratch its ticker reads.
// Placers that do not implement it pin their machine to per-tick stepping.
type SteadyPlacer interface {
	Placer
	Settled(m *Machine) (SteadyTicker, bool)
}

// steadyThread is one window-constant plan row: the thread, its resolved
// speed (speedBase × speedFactor × cacheFactor, frozen with placement), its
// core's share, and the per-tick progress increment done = speed*share/1e6 —
// the exact value execute's partial-progress path computes every tick.
type steadyThread struct {
	t     *Thread
	speed float64
	share float64
	done  float64
}

// steadyCore is the per-core plan: the overhead steal (consumed and
// re-charged every tick, so the stolen balance is a fixed point) and the
// [lo, hi) slice of plan threads placed on it, in run-queue order.
type steadyCore struct {
	c        *coreState
	steal    float64
	share    float64
	lo, hi   int
	hasSteal bool
}

// steadyPlan is the reusable per-machine window plan; all slices are
// recycled across windows, so steady advancement allocates nothing after
// the first certification.
type steadyPlan struct {
	cores   []steadyCore
	threads []steadyThread
	tickers []SteadyTicker
	// walks[i] is RunSteady's completion search over threads[i].remaining,
	// grown with the largest plan a long window has had.
	walks []unitWalk

	// charges[cpu] is the summed per-tick overhead the window's daemons
	// charge against cpu (chargedCPUs lists the non-zero entries for cheap
	// reset); totalCharge is their machine-wide sum per tick.
	charges     []Time
	chargedCPUs []int
	totalCharge Time

	// cold records that the last certification failed on the power memo
	// alone, and edge that the last window stopped before a tick known to
	// end it (see RunUntilCached).
	cold, edge bool
}

// empty reports whether the certified plan moves only the clock and the
// energy sums: no core runs a thread or consumes stolen overhead, and no
// daemon advances per-tick state.
func (p *steadyPlan) empty() bool { return len(p.cores) == 0 && len(p.tickers) == 0 }

// steadyMinTicks is the shortest certified window worth entering RunSteady
// for — below it the certification scan costs more than the batched loop
// saves. steadySkipTicks is the back-off RunUntilCached arms after a failed
// or too-short certification on a machine with runnable threads: churny
// phases (a pipeline blocking on I/O every few ticks) would otherwise pay
// the full scan every tick for nothing. Two outcomes are not churn and
// skip it: a window that stopped before a tick known to end it (a unit
// completes, or a ticker acts), whose edge is stepped next and only it,
// and a certification vetoed by the power memo alone — the usual state
// right after that edge, whose utilisation differed — which is retried
// after one tick. The minimum does not apply to empty windows, whose jumps
// pay from one tick on, nor the back-off to a machine with nothing
// runnable, whose certification is cheap. Both only steer which
// advancement path runs; results are bit-identical either way.
const (
	steadyMinTicks  = 4
	steadySkipTicks = 4
)

// primeSteady sizes the reusable window plan for the machine's current
// core, daemon, and thread population so that certification inside the hot
// loop never allocates. New, Spawn, and AddDaemon call it from the cold
// construction paths.
func (m *Machine) primeSteady() {
	p := &m.steady
	if len(p.charges) < len(m.cores) {
		p.charges = make([]Time, len(m.cores))
	}
	if cap(p.chargedCPUs) < len(m.cores) {
		p.chargedCPUs = make([]int, 0, len(m.cores))
	}
	if cap(p.cores) < len(m.cores) {
		p.cores = make([]steadyCore, 0, len(m.cores))
	}
	if cap(p.tickers) < len(m.daemons)+1 { // the daemons' and the placer's
		p.tickers = make([]SteadyTicker, 0, len(m.daemons)+1)
	}
	if cap(p.threads) < len(m.threads) {
		p.threads = make([]steadyThread, 0, len(m.threads))
	}
}

// SteadyUntil certifies the longest window ≤ limit in which every tick
// provably repeats the same work: the runnable set, per-thread speed
// factors, placement, and online/cap state cannot change. Busy, idle, and
// crashed machines all qualify; an idle or crashed machine's window has an
// empty plan (see FastForwardCached). A return of m.Now() means no window
// could be certified and the next tick must run through Step. The bound is
// conservative (every "maybe" is a "no") and is the earliest of: the first
// pending timer wakeup, each daemon's declared Until, and the caller's
// limit. In-window unit completions are not predicted here — RunSteady
// detects the first completing tick exactly and stops before it.
//
// Certification requires, mirroring each per-tick phase of Step:
//
//   - fireTimers: no timer due (the first pending timer bounds the window);
//   - Place: no misplaced thread, and the placer is a SteadyPlacer
//     reporting itself settled (or nil). Settled runs last, after every
//     cheaper rejection below, and its ticker goes first in the plan,
//     because Place runs before the daemons;
//   - execute: every queued thread stall-free (no pending migration
//     penalty), and every core's pending stolen overhead exactly equal to
//     the per-tick charge the window's daemons declare — so the
//     steal/recharge cycle is a fixed point and capacity shares repeat;
//   - integratePower (skipped on a crashed machine, which integrates
//     nothing): the memo warm and keyed exactly as integratePower keys it
//     (levels, online counts, and the per-core tick utilisation,
//     accumulated here in execute's order);
//   - daemons: every daemon a SteadyDaemon whose SteadyBegin accepts.
//
// A successful certification leaves the window plan in m; RunSteady (or,
// for an empty plan, FastForwardCached) executes it and must be the next
// advancement call.
func (m *Machine) SteadyUntil(limit Time) Time {
	m.steady.cold = false
	if limit <= m.now || m.misplaced != 0 || len(m.journal) != 0 {
		return m.now
	}
	var sp SteadyPlacer
	if m.placer != nil {
		var ok bool
		if sp, ok = m.placer.(SteadyPlacer); !ok {
			return m.now
		}
	}
	until := limit
	if m.timers.Len() > 0 {
		at := m.timers.entries[0].at
		if at <= m.now {
			return m.now
		}
		if at < until {
			until = at
		}
	}

	p := &m.steady
	for _, cpu := range p.chargedCPUs {
		p.charges[cpu] = 0
	}
	p.chargedCPUs = p.chargedCPUs[:0]
	p.tickers = p.tickers[:0]
	p.cores = p.cores[:0]
	p.threads = p.threads[:0]
	p.totalCharge = 0
	m.windowID++
	for _, d := range m.daemons {
		sd, ok := d.(SteadyDaemon)
		if !ok {
			return m.now
		}
		ent, ok := sd.SteadyBegin(m)
		if !ok {
			return m.now
		}
		if ent.Until != 0 {
			if ent.Until <= m.now {
				return m.now
			}
			if ent.Until < until {
				until = ent.Until
			}
		}
		if ent.Charge > 0 {
			cpu := ent.ChargeCPU
			if cpu < 0 || cpu >= len(m.cores) || !m.online.Has(cpu) {
				cpu = m.firstOnline() // ChargeOverhead's fallback
			}
			if p.charges[cpu] == 0 {
				p.chargedCPUs = append(p.chargedCPUs, cpu)
			}
			p.charges[cpu] += ent.Charge
			p.totalCharge += ent.Charge
		}
		if ent.Ticker != nil {
			p.tickers = append(p.tickers, ent.Ticker)
		}
	}

	// A power memo keyed on another tick's levels, online counts or
	// utilisation is cold: it vetoes the window, but the next tick warms
	// it, so the checks after it still run to tell that veto apart.
	powerOn := m.cfg.Power != nil && !m.failed
	cold := false
	if powerOn {
		for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
			online := m.plat.Clusters[k].Cores
			if m.opm != nil && m.online != m.allMask {
				online = m.OnlineCount(k)
			}
			if !m.powerValid[k] || m.levels[k] != m.lastLevel[k] || online != m.lastOnline[k] {
				cold = true
			}
		}
	}

	if len(m.runnable) == 0 && p.totalCharge == 0 {
		// Empty per-core plan: nothing runs and nothing is charged, so the
		// tick repeats exactly when no core has overhead left to steal and
		// the power memo is keyed on an all-zero tick utilisation.
		for i := range m.cores {
			if m.cores[i].stolen != 0 {
				return m.now
			}
		}
		if powerOn {
			for k := range m.lastTickUse {
				for _, tu := range m.lastTickUse[k] {
					if tu != 0 {
						cold = true
					}
				}
			}
		}
		return m.settlePlacer(sp, until, cold)
	}

	var speedByCluster [hmp.NumClusters]float64
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		speedByCluster[k] = m.freqScale[k][m.levels[k]]
	}
	for i := range m.cores {
		c := &m.cores[i]
		stealT := p.charges[i]
		if c.stolen != stealT || stealT >= m.cfg.TickLen {
			// The steal/recharge cycle is a fixed point only when the
			// pending balance equals the per-tick charge and execute can
			// consume it whole with capacity left over.
			return m.now
		}
		n := len(c.run)
		tu := 0.0
		sc := steadyCore{c: c, lo: len(p.threads)}
		if stealT > 0 {
			sc.steal = float64(stealT)
			sc.hasSteal = true
			tu += sc.steal
		}
		if n > 0 {
			avail := m.tickUS - sc.steal
			share := avail / float64(n)
			sc.share = share
			cluster := c.cluster
			speedBase := speedByCluster[cluster]
			for _, id := range c.run {
				t := m.threads[id]
				if t.penalty != 0 || t.blocked {
					return m.now
				}
				speed := speedBase * t.speedFactor[cluster] * m.cacheFactor(t, cluster)
				if speed <= 0 {
					continue // consumes nothing, exactly as in execute
				}
				p.threads = append(p.threads, steadyThread{
					t: t, speed: speed, share: share, done: speed * share / 1e6,
				})
				t.window = m.windowID
				tu += share
			}
		}
		sc.hi = len(p.threads)
		if powerOn {
			k := c.cluster
			if m.lastTickUse[k][i-m.plat.FirstCPU(k)] != tu {
				cold = true
			}
		}
		if sc.hasSteal || sc.hi > sc.lo {
			p.cores = append(p.cores, sc)
		}
	}
	return m.settlePlacer(sp, until, cold)
}

// settlePlacer is SteadyUntil's last check: the placer's certification (a
// nil placer places nothing). A placer ticker goes first in the plan,
// ahead of the daemons', because Step runs Place before them; primeSteady
// sized the plan for it. A cold power memo vetoes the window here, after
// every other machine-side check has passed, so the plan records that it
// was the only one; the placer is not consulted for a vetoed window (the
// next Step's Place makes any move it would have vetoed for).
func (m *Machine) settlePlacer(sp SteadyPlacer, until Time, cold bool) Time {
	if cold {
		m.steady.cold = true
		return m.now
	}
	if sp == nil {
		return until
	}
	tk, ok := sp.Settled(m)
	if !ok {
		return m.now
	}
	if tk != nil {
		p := &m.steady
		p.tickers = append(p.tickers, nil)
		copy(p.tickers[1:], p.tickers)
		p.tickers[0] = tk
	}
	return until
}

// RunSteady executes the window certified by the immediately preceding
// SteadyUntil call. The window ends early — before the offending tick — at
// the first tick on which a thread's current unit would complete within
// its share (the heartbeat-window edge: the completion runs through the
// general Step so its callback, beats, and reconcile happen on the
// reference path) or which a planned ticker's SteadyBound declines.
// Reports whether at least one tick was advanced; on false the machine is
// untouched and the caller must fall back to Step. A window cut short by a
// completion or a ticker's bound records in the plan that the tick after
// it is such an edge.
//
// Every accumulator takes Step's float operations in Step's order: thread
// remaining -= done and workDone += done, core busy += steal and then
// += share once per thread, and the memoized per-cluster energy added to
// its cluster and then to the total, clusters ascending. A window in which
// some unit completes within plainTicks runs them tick by tick (runTicks);
// a longer one finds its end without stepping (completionBound) and jumps
// every accumulator by its bit pattern (accrueJump). Then each ticker's
// SteadyAdvance replays its internal state (placer first, then the daemons
// in registration order) while the clock and the run stamps still show the
// window's start, lastRan takes the window's last tick, and the clock and
// counters move. The per-core tick utilisation and stolen balances are
// fixed points of the certified pattern and are left untouched; the
// summed overhead charge is applied once (only its final value is
// observable).
func (m *Machine) RunSteady(until Time) bool {
	p := &m.steady
	tickLen := m.cfg.TickLen
	n := int64((until - m.now + tickLen - 1) / tickLen) // RunUntil overshoots to the tick grid
	if p.short(n) {
		b := min(n, plainTicks)
		k := m.tickerBound(b)
		n = m.runTicks(k)
		p.edge = n < b
	} else {
		c, completes := p.completionBound(n)
		n = m.tickerBound(c)
		p.edge = completes || n < c
		if n > 0 {
			m.accrueJump(n)
		}
	}
	if n <= 0 {
		return false
	}
	m.windows++
	for _, tk := range p.tickers {
		tk.SteadyAdvance(m, n)
	}
	m.execTick += n
	for i := range p.threads {
		p.threads[i].t.lastRan = m.execTick
	}
	m.ticks += n
	m.now += Time(n) * tickLen
	m.overhead += Time(n) * p.totalCharge
	return true
}

// tickerBound returns how many of the next n ticks every planned ticker
// absorbs.
func (m *Machine) tickerBound(n int64) int64 {
	for _, tk := range m.steady.tickers {
		if n == 0 {
			break
		}
		n = tk.SteadyBound(m, n)
	}
	return n
}

// short reports whether the window is at most plainTicks long or some unit
// is due to complete within about that many ticks (remaining/done, without
// the division): a window that short costs least run tick by tick. It only
// steers which path runs.
func (p *steadyPlan) short(n int64) bool {
	if n <= plainTicks {
		return true
	}
	for i := range p.threads {
		st := &p.threads[i]
		if st.t.remaining < st.done*plainTicks {
			return true
		}
	}
	return false
}

// runTicks runs up to n window ticks one at a time, each accumulator in a
// register, stopping before the first tick on which a unit completes, and
// returns the ticks run. It counts every accumulator tick as a real one.
func (m *Machine) runTicks(n int64) int64 {
	p := &m.steady
	powerOn := m.cfg.Power != nil && !m.failed
	e := m.lastE
	ce := m.clusterEnergyJ
	tot := m.energyJ
	var j int64
window:
	for ; j < n; j++ {
		for i := range p.threads {
			st := &p.threads[i]
			if unitCompletes(st.t.remaining, st.speed, st.share) {
				break window
			}
		}
		for ci := range p.cores {
			sc := &p.cores[ci]
			if sc.hasSteal {
				sc.c.busy += sc.steal
			}
			for i := sc.lo; i < sc.hi; i++ {
				st := &p.threads[i]
				st.t.remaining -= st.done
				st.t.workDone += st.done
				sc.c.busy += sc.share
			}
		}
		if powerOn {
			for k := 0; k < int(hmp.NumClusters); k++ {
				ce[k] += e[k]
				tot += e[k]
			}
		}
	}
	acc := int64(2*len(p.threads) + len(p.cores))
	if powerOn {
		m.clusterEnergyJ = ce
		m.energyJ = tot
		acc += int64(hmp.NumClusters) + 1
	}
	m.jumpTicks += acc * j
	m.jumpCost += acc * j
	return j
}

// completionBound returns how many of the next n ticks pass before the
// first whose pre-tick check finds a plan thread's unit completing, and
// whether such a tick was found. A unit lasts about remaining/done more
// ticks, so the window is first capped just past the earliest such
// estimate, which keeps every exact search short (a cap that falls short
// only ends the window early, at a tick not known to complete anything).
// Each thread's remaining is then searched by its binades, and the walk is
// kept for accrueJump.
func (p *steadyPlan) completionBound(n int64) (int64, bool) {
	for i := range p.threads {
		st := &p.threads[i]
		if est := st.t.remaining / st.done; est < float64(n-2) {
			n = int64(est) + 2
		}
	}
	capped := n
	p.walks = slices.Grow(p.walks[:0], len(p.threads))[:len(p.threads)]
	for i := range p.threads {
		st := &p.threads[i]
		n = p.walks[i].search(st.t.remaining, st.done, st.speed, st.share, n)
	}
	return n, n < capped
}

// accrueJump applies n window ticks to every accumulator of the plan by
// its bit pattern (Machine.jump), remaining from the completion search's
// walk when it passed tick n.
func (m *Machine) accrueJump(n int64) {
	p := &m.steady
	for ci := range p.cores {
		sc := &p.cores[ci]
		busy := tickAdds{pre: sc.steal, hasPre: sc.hasSteal, x: sc.share, reps: sc.hi - sc.lo}
		sc.c.busy = m.jump(busy, sc.c.busy, n)
		for i := sc.lo; i < sc.hi; i++ {
			st := &p.threads[i]
			if r, ok := p.walks[i].at(n); ok {
				st.t.remaining = r
				m.jumpTicks += n
				m.jumpCost += p.walks[i].cost
			} else {
				st.t.remaining = m.jump(tickAdds{x: -st.done, reps: 1}, st.t.remaining, n)
			}
			st.t.workDone = m.jump(tickAdds{x: st.done, reps: 1}, st.t.workDone, n)
		}
	}
	if m.cfg.Power != nil && !m.failed {
		m.advanceEnergy(n)
	}
}
