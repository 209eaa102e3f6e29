package sim

// MaskBalancer is the placement policy used underneath HARS: every runnable
// thread is kept on a CPU inside its affinity mask, spread to the
// least-loaded permitted core. It models a work-conserving OS scheduler
// operating under the cpuset constraints HARS's chunk-based and interleaving
// schedulers install; all cross-cluster policy lives in those masks.
//
// The balancer works off the machine's incrementally maintained run-queue
// state: per-core counts come from the O(1) run-queue lengths, the repair
// pass runs only while the machine's misplaced-runnable counter is non-zero,
// and the balancing sweep visits only runnable threads — and only when some
// core is at least two threads heavier than the lightest. Decisions are
// tick-for-tick identical to the historical full-scan implementation (see
// the equivalence tests in the repository root).
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
// vacuous — on a crashed machine too, which has no online core for the
// spread check below. Otherwise, with no misplaced thread the repair pass
// is vacuous and the per-core counts Place would compute equal the O(1)
// run-queue lengths, so Place is a pure no-op exactly when its balancing
// sweep would move nothing — and stays one while runnability, placement,
// affinity, and the online mask are frozen, because the counts cannot
// change underneath it. The global spread check mirrors Place's sweep
// skip (all cores on an all-online machine, online cores otherwise); when
// the spread exceeds one — routine under affinity masks that pack threads
// onto a core subset while permitted cores sit level — the sweep itself is
// replayed read-only: a single thread with a permitted online core two
// lighter than its own refutes settledness. Certification runs this once
// per window, not per tick, so the O(runnable × cores) scan amortizes
// across every tick the window jumps. The balancer keeps no per-call
// state, so it returns no ticker: skipping the no-op calls is invisible.
func (b *MaskBalancer) Settled(m *Machine) (SteadyTicker, bool) {
	if m.misplaced != 0 {
		return nil, false
	}
	if len(m.runnable) == 0 {
		return nil, true
	}
	online := m.online
	all := online == m.allMask
	var minC, maxC int
	if all {
		minC, maxC = m.cores[0].runLen, m.cores[0].runLen
		for i := 1; i < len(m.cores); i++ {
			n := m.cores[i].runLen
			if n < minC {
				minC = n
			}
			if n > maxC {
				maxC = n
			}
		}
	} else {
		seen := false
		for i := range m.cores {
			if !online.Has(i) {
				continue
			}
			n := m.cores[i].runLen
			if !seen || n < minC {
				minC = n
			}
			if !seen || n > maxC {
				maxC = n
			}
			seen = true
		}
		if !seen {
			return nil, false
		}
	}
	if maxC-minC <= 1 {
		return nil, true
	}
	// Replay the sweep read-only, with counts == runLen (misplaced is zero).
	// Place's first move happens at the first thread whose core is above
	// minC+1 with a permitted online core two lighter; if no thread has one,
	// the sweep visits every thread and moves none.
	nc := len(m.cores)
	for _, id := range m.runnable {
		t := m.threads[id]
		if t.core < 0 {
			continue
		}
		cur := m.cores[t.core].runLen
		if cur <= minC+1 {
			continue
		}
		for cpu := 0; cpu < nc; cpu++ {
			if cpu == t.core || !t.affinity.Has(cpu) || (!all && !online.Has(cpu)) {
				continue
			}
			if m.cores[cpu].runLen < cur-1 {
				return nil, false
			}
		}
	}
	return nil, true
}

// Place implements Placer.
func (b *MaskBalancer) Place(m *Machine) {
	nc := len(m.cores)
	online := m.online
	// The all-online fast paths below skip the per-core hotplug tests in
	// the hot loops; they are exact because online.Has(cpu) is then true
	// for every cpu.
	all := online == m.allMask
	if cap(b.counts) < nc {
		b.counts = make([]int, nc)
	}
	counts := b.counts[:nc]
	// Per-core counts of in-mask runnable threads: the run-queue length
	// minus any thread currently stranded outside its affinity mask.
	for cpu := range counts {
		counts[cpu] = m.cores[cpu].runLen
	}
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
			for cpu := 0; cpu < nc; cpu++ {
				if !t.affinity.Has(cpu) || (!all && !online.Has(cpu)) {
					continue
				}
				if best < 0 || counts[cpu] < counts[best] {
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
	// drains cores that are at least two above it.
	var minC, maxC int
	if all {
		minC, maxC = counts[0], counts[0]
		for _, n := range counts[1:] {
			if n < minC {
				minC = n
			}
			if n > maxC {
				maxC = n
			}
		}
	} else {
		seen := false
		for cpu, n := range counts {
			if !online.Has(cpu) {
				continue
			}
			if !seen || n < minC {
				minC = n
			}
			if !seen || n > maxC {
				maxC = n
			}
			seen = true
		}
		if !seen {
			return
		}
	}
	if maxC-minC <= 1 {
		return
	}
	for _, id := range m.runnable {
		t := m.threads[id]
		if t.core < 0 {
			continue
		}
		cur := t.core
		if counts[cur] <= minC+1 {
			continue // no core anywhere is two lighter
		}
		best := cur
		for cpu := 0; cpu < nc; cpu++ {
			if cpu == cur || !t.affinity.Has(cpu) || (!all && !online.Has(cpu)) {
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
