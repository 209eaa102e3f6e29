package sim

import (
	"math"

	"repro/internal/hmp"
)

// Empty windows: a window (see SteadyUntil) whose plan is empty — no thread
// runs, no overhead is stolen, no daemon keeps per-tick state — moves only
// the clock, the tick counters, and the energy sums. Idle and crashed
// machines spend most of their time in such windows, and FastForwardCached
// executes one without walking the per-core plan, with the energy replay
// shared across bit-identical machines through a JumpCache. fleet.Fleet
// and the scenario engine build on this to jump whole quiescent fleets.

// InertUntil returns the end of the window SteadyUntil certifies up to
// limit when that window's plan is empty, and m.Now() otherwise. A fleet
// whose nodes share a tracer steps them in global tick order and uses it
// to find the stretches every node can jump together.
func (m *Machine) InertUntil(limit Time) Time {
	if until := m.SteadyUntil(limit); until > m.now && m.steady.empty() {
		return until
	}
	return m.now
}

// FastForwardCached executes an empty window up to (exactly) until: the
// memoized per-cluster energy is accumulated in the same order and with the
// same float additions Step would have performed (no closed-form shortcut —
// repeated IEEE addition is not multiplication), through jc when it is not
// nil, and the clock, tick and execute counters advance tick by tick. The
// caller must have certified the window (InertUntil, or SteadyUntil with an
// empty plan); FastForwardCached itself does not re-check.
func (m *Machine) FastForwardCached(until Time, jc *JumpCache) {
	d := until - m.now
	if d <= 0 {
		return
	}
	steps := int64((d + m.cfg.TickLen - 1) / m.cfg.TickLen) // ceil: RunUntil overshoots to the tick grid
	if m.cfg.Power != nil && !m.failed {
		if jc != nil {
			jc.apply(m, steps)
		} else {
			m.replayEnergy(steps)
		}
	}
	m.execTick += steps
	m.ticks += steps
	m.now += Time(steps) * m.cfg.TickLen
}

// replayEnergy performs the jump's energy accumulation: the float additions
// replay in registers, in exactly Step's order (per tick, clusters
// ascending, cluster accumulator then total); only the loop bookkeeping is
// hoisted.
func (m *Machine) replayEnergy(steps int64) {
	e := m.lastE
	c := m.clusterEnergyJ
	tot := m.energyJ
	for i := int64(0); i < steps; i++ {
		for k := 0; k < int(hmp.NumClusters); k++ {
			c[k] += e[k]
			tot += e[k]
		}
	}
	m.clusterEnergyJ = c
	m.energyJ = tot
}

// jumpCacheWays is the JumpCache associativity: enough that the handful of
// distinct machine shapes a worker sweeps per barrier (busy-adjacent, a few
// platform variants) coexist without evicting each other.
const jumpCacheWays = 4

// jumpKey identifies one energy-replay transition exactly: the starting
// accumulators and per-tick increments by bit pattern (distinguishing -0
// from +0, which IEEE addition does not treat identically), plus the step
// count.
type jumpKey struct {
	steps int64
	tot   uint64
	c     [hmp.NumClusters]uint64
	e     [hmp.NumClusters]uint64
}

type jumpEntry struct {
	ok  bool
	key jumpKey
	tot float64
	c   [hmp.NumClusters]float64
}

// JumpCache memoizes FastForwardCached's energy replay across machines and
// jumps. The replay is a pure function of the starting accumulator values,
// the per-tick increments, and the step count, so two machines in
// bit-identical power states — the common case in a large mostly-idle
// fleet, where every quiescent node evolves identically — need the
// O(steps) addition loop run only once; every other machine replays the
// memoized result, bit-for-bit. A cache is single-goroutine state: sharded
// fleet advancement gives each worker its own (hits only affect wall-clock,
// never results, so per-worker caching costs nothing in determinism).
type JumpCache struct {
	ents [jumpCacheWays]jumpEntry
	next int // round-robin eviction cursor
}

// NewJumpCache returns an empty cache.
func NewJumpCache() *JumpCache { return &JumpCache{} }

// apply advances m's energy accumulators by steps ticks of lastE, through
// the cache: a hit copies the memoized result, a miss runs the replay loop
// and memoizes it.
func (jc *JumpCache) apply(m *Machine, steps int64) {
	var key jumpKey
	key.steps = steps
	key.tot = math.Float64bits(m.energyJ)
	for k := 0; k < int(hmp.NumClusters); k++ {
		key.c[k] = math.Float64bits(m.clusterEnergyJ[k])
		key.e[k] = math.Float64bits(m.lastE[k])
	}
	for i := range jc.ents {
		if ent := &jc.ents[i]; ent.ok && ent.key == key {
			m.clusterEnergyJ = ent.c
			m.energyJ = ent.tot
			return
		}
	}
	m.replayEnergy(steps)
	jc.ents[jc.next] = jumpEntry{ok: true, key: key, tot: m.energyJ, c: m.clusterEnergyJ}
	jc.next = (jc.next + 1) % jumpCacheWays
}
