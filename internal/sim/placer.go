package sim

import (
	"math"
	"math/bits"

	"repro/internal/hmp"
)

// MaskBalancer is the placement policy used underneath HARS: every runnable
// thread is kept on a CPU inside its affinity mask, spread to the
// least-loaded permitted core. It models a work-conserving OS scheduler
// operating under the cpuset constraints HARS's chunk-based and interleaving
// schedulers install; all cross-cluster policy lives in those masks.
//
// The balancer works off the machine's incrementally maintained run-queue
// state: per-core counts come from the O(1) run-queue lengths, the repair
// pass runs only while the machine's misplaced-runnable counter is non-zero,
// and the balancing sweep visits only runnable threads, and only when some
// online core is at least two threads heavier than the lightest. The sweep
// moves a thread only when a core of its own mask (affinity & online) is
// at least two threads lighter than the thread's core, so it compares the
// thread's count with the lightest count over that mask before it looks
// for a destination. It computes that floor once per distinct mask and
// keeps it until a move changes the counts. Decisions are tick-for-tick
// identical to the historical full-scan implementation (see the
// equivalence tests in the repository root). The sweep's three rules are
// the functions below: spread, whose bounds skip it; stays, which leaves a
// thread on its core; and target, the core it moves a thread to. Settled
// certifies windows with those same functions, so it keeps no copy of the
// sweep.
type MaskBalancer struct {
	counts []int // scratch: in-mask runnable threads per core
}

// NewMaskBalancer returns a MaskBalancer.
func NewMaskBalancer() *MaskBalancer { return &MaskBalancer{} }

// Prime pre-sizes the balancer's per-core scratch for a machine with nc
// cores, so the first Place call of a run does not allocate — on a
// thousand-node fleet those first-tick growths are the difference between an
// alloc-free steady state and one allocation per node inside the hot loop.
// Optional: Place grows the scratch on demand either way.
func (b *MaskBalancer) Prime(nc int) {
	if cap(b.counts) < nc {
		b.counts = make([]int, nc)
	}
}

// Settled implements SteadyPlacer. With nothing runnable every per-core
// count is zero, so both the repair pass and the balancing sweep are
// vacuous — on a crashed machine too, which has no online core to spread
// over. Otherwise, with no misplaced thread the repair pass is vacuous and
// the per-core counts Place would compute equal the O(1) run-queue lengths,
// so Place is a pure no-op exactly when its balancing sweep would move
// nothing — and stays one while runnability, placement, affinity, and the
// online mask are frozen, because the counts cannot change underneath it.
// Settled asks the sweep's own rules on those counts: the spread that
// skips it (routinely over one under affinity masks that pack threads onto
// a core subset while permitted cores sit level), then whether each
// runnable thread stays. The sweep's counts do not change before its first
// move, so that move is the first thread that does not stay, and with no
// such thread the sweep moves none. Certification runs this once per
// window, not per tick, and it costs one comparison per thread and one
// pass per distinct mask. It writes only scratch (the counts, which Place
// recomputes); the balancer keeps no per-call state, so it returns no
// ticker: skipping the no-op calls is invisible.
func (b *MaskBalancer) Settled(m *Machine) (SteadyTicker, bool) {
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
	s := sweep{counts: counts, online: m.online, minC: minC}
	for _, id := range m.runnable {
		if !s.stays(m.threads[id]) {
			return nil, false
		}
	}
	return nil, true
}

// Place implements Placer.
func (b *MaskBalancer) Place(m *Machine) {
	online := m.online
	// Per-core counts of in-mask runnable threads: the run-queue length
	// minus any thread currently stranded outside its affinity mask.
	counts := b.runLens(m)
	if m.misplaced > 0 {
		for _, id := range m.runnable {
			t := m.threads[id]
			if t.misplaced && t.core >= 0 {
				counts[t.core]--
			}
		}
		// First pass: repair threads placed outside their mask (or nowhere,
		// e.g. after an offline eviction). A thread whose mask intersects no
		// online core stays unplaced until the platform grows back.
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
	// Second pass: one balancing sweep with hysteresis — move a thread only
	// if a permitted online core is at least two threads lighter than its
	// own. When every online core is within one thread of the online minimum
	// no such move exists anywhere, so the sweep is skipped outright; minC
	// stays a valid lower bound during the sweep because a move only ever
	// drains cores that are at least two above it. A move changes two
	// counts, so the sweep forgets its mask floors after it.
	minC, maxC, ok := spread(m, counts)
	if !ok || maxC-minC <= 1 {
		return
	}
	s := sweep{counts: counts, online: online, minC: minC}
	for _, id := range m.runnable {
		t := m.threads[id]
		if t.core < 0 || s.stays(t) {
			continue
		}
		best := target(t, counts, online)
		counts[t.core]--
		counts[best]++
		m.Migrate(t, best)
		s.floors = 0
	}
}

// runLens returns the balancer's scratch counts holding each core's
// run-queue length.
func (b *MaskBalancer) runLens(m *Machine) []int {
	nc := len(m.cores)
	if cap(b.counts) < nc {
		b.counts = make([]int, nc)
	}
	counts := b.counts[:nc]
	for cpu := range counts {
		counts[cpu] = m.cores[cpu].runLen
	}
	return counts
}

// spread returns the lightest and the heaviest of the online cores' counts,
// with ok=false when no core is online. On an all-online machine it skips
// the per-core hotplug test, which is then true for every core.
func spread(m *Machine, counts []int) (minC, maxC int, ok bool) {
	if m.online == m.allMask {
		minC, maxC = counts[0], counts[0]
		for _, n := range counts[1:] {
			minC, maxC = min(minC, n), max(maxC, n)
		}
		return minC, maxC, true
	}
	for cpu, n := range counts {
		if !m.online.Has(cpu) {
			continue
		}
		if !ok || n < minC {
			minC = n
		}
		if !ok || n > maxC {
			maxC = n
		}
		ok = true
	}
	return minC, maxC, ok
}

// sweep is one balancing sweep's view of the counts: the online cores, a
// lower bound on their counts (minC), and the lightest count over each
// mask the sweep has met since the counts last changed. It lives on its
// caller's stack; a move clears its floors.
type sweep struct {
	counts []int
	online hmp.CPUMask
	minC   int
	masks  [maxFloors]hmp.CPUMask
	mins   [maxFloors]int
	floors int // entries of masks and mins in use
}

// maxFloors bounds the masks a sweep remembers. HARS installs two per
// process; a sweep that meets more starts over rather than search a long
// list.
const maxFloors = 8

// stays reports whether the balancing sweep leaves placed thread t on its
// core: whether no core of t.affinity & online is two threads lighter than
// t's own, which is exactly when target returns t's own core. A thread at
// most one above minC stays without a look at its mask; any other is
// compared with the lightest count over its mask, computed once per
// distinct mask.
func (s *sweep) stays(t *Thread) bool {
	n := s.counts[t.core] - 1
	return n <= s.minC || n <= s.floor(t.affinity&s.online)
}

// floor returns the lightest count over the cores of mask (MaxInt when it
// is empty), remembered from an earlier call when it can be.
func (s *sweep) floor(mask hmp.CPUMask) int {
	for i, m := range s.masks[:s.floors] {
		if m == mask {
			return s.mins[i]
		}
	}
	lo := math.MaxInt
	for rest := uint64(mask); rest != 0; rest &= rest - 1 {
		lo = min(lo, s.counts[bits.TrailingZeros64(rest)])
	}
	if s.floors == maxFloors {
		s.floors = 0
	}
	s.masks[s.floors], s.mins[s.floors] = mask, lo
	s.floors++
	return lo
}

// target returns the core the balancing sweep moves placed thread t to
// under counts: the last permitted online core two threads lighter than
// the best so far, or t's own core when none is.
func target(t *Thread, counts []int, online hmp.CPUMask) int {
	cur := t.core
	mask := t.affinity & online
	best := cur
	for cpu := range counts {
		if cpu != cur && mask.Has(cpu) && counts[cpu] < counts[best]-1 {
			best = cpu
		}
	}
	return best
}
