package sim

import "repro/internal/hmp"

// Window advancement: a machine whose runnable threads are all mid-unit —
// nothing completes, nothing migrates, nothing actuates — repeats the same
// tick over and over, differing only in the float accumulators and in the
// private per-tick state of its placer and daemons (a load average, a call
// counter, an integrator), which their tickers advance. An idle or crashed
// machine is the same case with an empty plan: no thread runs, so only the
// clock and the energy sums move. SteadyUntil certifies a window in which
// that repetition is provable; RunSteady executes it as a tight loop
// (per-tick progress accrual and the memoized energy additions in
// registers, the same IEEE operations in the same order as the general
// path, skipping the runnable scan, placer dispatch, daemon walk, and trace
// checks that are provably no-ops, and calling only the tickers), and
// FastForwardCached executes an empty one. This is an execution strategy,
// not a semantic change — every observable state is bit-for-bit what the
// equivalent sequence of Step calls would produce, and the general
// per-tick loop survives as the reference the golden digests and the
// equivalence suites pin it to.

// SteadyTicker is the per-tick half of a SteadyDaemon or SteadyPlacer whose
// calls inside a certified window are internal-only (they advance private
// state — an integrator, a load average, a call counter — without touching
// the machine). SteadyTick is called once per window tick before the tick's
// effects are applied; it must be pure apart from private scratch and
// report whether the next Tick (or Place) call would stay internal-only:
// returning false ends the window at that tick, which then runs through the
// general Step. SteadyAdvance then replays exactly the internal effects one
// call would have had; it runs only after every planned check of the tick
// passed, at the point of the tick where the daemons run, the placer's
// ticker first and then the daemons' in registration order. A SteadyTick
// may leave scratch that the same tick's SteadyAdvance commits — a value
// that depends on the machine as it stood before the tick, such as
// RanLastTick, which the tick's own accrual overwrites before SteadyAdvance
// runs. When a later check declines the tick, SteadyAdvance is not called
// and the scratch is simply stale.
type SteadyTicker interface {
	SteadyTick(m *Machine) bool
	SteadyAdvance(m *Machine)
}

// SteadyEntry is a daemon's declaration of what its per-tick work amounts to
// inside a window: a fixed overhead charge (Charge µs against ChargeCPU per
// tick, exactly what its Tick would ChargeOverhead), an optional per-tick
// Ticker for internal state that must advance, and an optional wake bound
// Until: the daemon's Tick may do anything on the first tick starting at or
// after Until, so the window ends before that tick. A zero Until means no
// bound, and a zero entry declares every in-window Tick a pure no-op.
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
// placement, affinity, and the online mask are all frozen. A placer whose
// Place keeps per-call state (gts.Scheduler's load averages and its
// migration-pass counter) returns a ticker that advances that state once
// per window tick and ends the window before a tick whose Place would move
// a thread; a stateless placer (MaskBalancer) returns a nil ticker.
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

	// charges[cpu] is the summed per-tick overhead the window's daemons
	// charge against cpu (chargedCPUs lists the non-zero entries for cheap
	// reset); totalCharge is their machine-wide sum per tick.
	charges     []Time
	chargedCPUs []int
	totalCharge Time
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
// the full scan every tick for nothing. The minimum does not apply to
// empty windows, whose jumps pay from one tick on, nor the back-off to a
// machine with nothing runnable, whose certification is cheap. Both only
// steer which advancement path runs; results are bit-identical either way.
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

	powerOn := m.cfg.Power != nil && !m.failed
	if powerOn {
		for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
			if !m.powerValid[k] || m.levels[k] != m.lastLevel[k] {
				return m.now
			}
			online := m.plat.Clusters[k].Cores
			if m.opm != nil && m.online != m.allMask {
				online = m.OnlineCount(k)
			}
			if online != m.lastOnline[k] {
				return m.now
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
						return m.now
					}
				}
			}
		}
		return m.settlePlacer(sp, until)
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
				tu += share
			}
		}
		sc.hi = len(p.threads)
		if powerOn {
			k := c.cluster
			if m.lastTickUse[k][i-m.plat.FirstCPU(k)] != tu {
				return m.now
			}
		}
		if sc.hasSteal || sc.hi > sc.lo {
			p.cores = append(p.cores, sc)
		}
	}
	return m.settlePlacer(sp, until)
}

// settlePlacer is SteadyUntil's last check: the placer's certification (a
// nil placer places nothing). A placer ticker goes first in the plan,
// ahead of the daemons', because Step runs Place before them; primeSteady
// sized the plan for it.
func (m *Machine) settlePlacer(sp SteadyPlacer, until Time) Time {
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
// SteadyUntil call as a tight per-tick loop, stopping early — before the
// offending tick — when a thread's current unit would complete within its
// share (the heartbeat-window edge: the completion runs through the general
// Step so its callback, beats, and reconcile happen on the reference path)
// or when a planned daemon's SteadyTick declines the tick. Reports whether
// at least one tick was advanced; on false the machine is untouched and the
// caller must fall back to Step.
//
// Per tick, in Step's order: thread progress accrues with the exact
// subtraction execute performs (remaining -= done, workDone += done, the
// lastRan stamp, core busy += share, after the overhead steal's busy add),
// the memoized per-cluster energy adds replay in integratePower's order
// (cluster accumulator then total, clusters ascending), placer and daemon
// internal state advances via SteadyAdvance, and the clock and tick
// counters increment. lastRan is stamped every tick because a ticker's
// SteadyTick reads RanLastTick mid-window. The per-core tick utilisation
// and stolen balances are fixed points of the certified pattern and are
// left untouched; the summed overhead charge is applied once at the end
// (only its final value is observable).
func (m *Machine) RunSteady(until Time) bool {
	p := &m.steady
	start := m.now
	tickLen := m.cfg.TickLen
	powerOn := m.cfg.Power != nil && !m.failed
	// Hoist the energy accumulators into registers for the window; nothing
	// observes them mid-window.
	e := m.lastE
	ce := m.clusterEnergyJ
	tot := m.energyJ
window:
	for m.now < until {
		for i := range p.threads {
			st := &p.threads[i]
			if st.t.remaining/st.speed*1e6 <= st.share {
				break window // unit completes this tick: general path's turn
			}
		}
		for _, tk := range p.tickers {
			if !tk.SteadyTick(m) {
				break window
			}
		}
		m.execTick++
		for ci := range p.cores {
			sc := &p.cores[ci]
			if sc.hasSteal {
				sc.c.busy += sc.steal
			}
			for i := sc.lo; i < sc.hi; i++ {
				st := &p.threads[i]
				st.t.remaining -= st.done
				st.t.workDone += st.done
				st.t.lastRan = m.execTick
				sc.c.busy += sc.share
			}
		}
		if powerOn {
			for k := 0; k < int(hmp.NumClusters); k++ {
				ce[k] += e[k]
				tot += e[k]
			}
		}
		for _, tk := range p.tickers {
			tk.SteadyAdvance(m)
		}
		m.now += tickLen
		m.ticks++
	}
	if m.now == start {
		return false
	}
	m.clusterEnergyJ = ce
	m.energyJ = tot
	steps := (m.now - start) / tickLen
	m.overhead += steps * p.totalCharge
	return true
}
