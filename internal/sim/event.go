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
// passes one cache to every node it brings to a barrier, so a quiescent
// fleet replays each distinct machine state once.

// FastForwardCached executes an empty window up to (exactly) until: the
// memoized per-cluster energy is accumulated as Step's float additions
// would accumulate it, through jc when it is not nil, and the clock, tick
// and execute counters advance by the window's tick count. The caller must
// have certified the window (SteadyUntil with an empty plan);
// FastForwardCached itself does not re-check.
func (m *Machine) FastForwardCached(until Time, jc *JumpCache) {
	d := until - m.now
	if d <= 0 {
		return
	}
	steps := int64((d + TickLen - 1) / TickLen) // ceil: RunUntil overshoots to the tick grid
	if m.cfg.Power != nil && !m.failed {
		if jc != nil {
			jc.apply(m, steps)
		} else {
			m.advanceEnergy(steps)
		}
	}
	m.execTick += steps
	m.ticks += steps
	m.now += Time(steps) * TickLen
}

// advanceEnergy adds steps ticks of the memoized per-cluster energy, bit
// for bit as Step does it — per tick, clusters ascending, the cluster
// accumulator and then the total — with each accumulator jumped by its bit
// pattern (tickAdds.advance): the cluster sums take e[k] once per tick, the
// total e[Little] then e[Big].
func (m *Machine) advanceEnergy(steps int64) {
	e := m.lastE
	for k := range m.clusterEnergyJ {
		m.clusterEnergyJ[k] = m.jump(tickAdds{x: e[k], reps: 1}, m.clusterEnergyJ[k], steps)
	}
	m.energyJ = m.jump(tickAdds{pre: e[hmp.Little], hasPre: true, x: e[hmp.Big], reps: 1}, m.energyJ, steps)
}

// jumpCacheWays is the JumpCache associativity: enough that the handful of
// distinct machine shapes a fleet sweeps per barrier (busy-adjacent, a few
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
// fleet, where every quiescent node evolves identically — need the jump
// computed only once; every other machine copies the memoized result,
// bit-for-bit. A cache is single-goroutine state; hits
// only affect wall-clock, never results.
type JumpCache struct {
	ents [jumpCacheWays]jumpEntry
	next int // round-robin eviction cursor
}

// NewJumpCache returns an empty cache.
func NewJumpCache() *JumpCache { return &JumpCache{} }

// apply advances m's energy accumulators by steps ticks of lastE, through
// the cache: a hit copies the memoized result, a miss runs advanceEnergy
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
	m.advanceEnergy(steps)
	jc.ents[jc.next] = jumpEntry{ok: true, key: key, tot: m.energyJ, c: m.clusterEnergyJ}
	jc.next = (jc.next + 1) % jumpCacheWays
}
