package sim

import "math"

// Accumulator jumps: a window adds the same float64 values to each of its
// accumulators every tick (thread remaining and workDone, core busy, the
// energy sums), so the accumulator's value after n ticks follows from its
// bit pattern instead of n rounded additions.
//
// Within one binade [F, 2F) of a positive double, the representable values
// are the multiples of one ulp u, and the bit pattern is linear in the
// value. While the exact sum a + x stays inside the binade, round to
// nearest even makes a + x the multiple of u nearest to it: the addition
// moves the bit pattern by round(x/u) ulps, independent of a — except on a
// tie (x an odd multiple of u/2), where the parity of a's last bit picks the
// even neighbour. A tie add therefore always leaves an even bit pattern, so
// the parity at the end of a tick that contains one does not depend on the
// parity at its start, and a tick without one adds a fixed count. Either
// way every tick after the first adds the same number of ulps:
// bits(a_j) = bits(a_1) + (j−1)·k2 with k2 = bits(a_2) − bits(a_1), read off
// two real float ticks. The formula holds while every value, each
// intermediate sum of a tick included, stays inside the binade and at least
// one ulp above its floor: below F the spacing halves, so an exact sum in
// (F − u/2, F) rounds to a value the linear model would put at F. An
// accumulator therefore costs a few real ticks per binade it crosses,
// not one per tick.

// tickAdds is one accumulator's per-tick addition pattern: pre (when hasPre)
// and then x, reps times, all in that order — core busy takes the overhead
// steal and then one share per thread, the energy total the little and then
// the big cluster's tick energy.
type tickAdds struct {
	pre    float64
	hasPre bool
	x      float64
	reps   int
}

// tick is one real tick: the additions in order, each rounded.
func (s tickAdds) tick(a float64) float64 {
	if s.hasPre {
		a += s.pre
	}
	for i := 0; i < s.reps; i++ {
		a += s.x
	}
	return a
}

// sameSign reports whether no two additions of a tick have opposite signs,
// so every intermediate sum of a tick lies between its start and its end.
func (s tickAdds) sameSign() bool {
	if !s.hasPre || s.reps == 0 {
		return true
	}
	return !(s.pre < 0 && s.x > 0 || s.pre > 0 && s.x < 0)
}

const (
	signBit  = 1 << 63
	fracBits = 52
	expMask  = 0x7ff << fracBits
)

// linearRun is the stretch of ticks after a value a over which the
// accumulator is known without more real ticks: for 1 ≤ j ≤ span, the
// value after j ticks is at(j). From the second tick on the bit pattern is
// linear; the first tick's value is kept whole, because it may still lie
// in a's binade when the rest of the stretch does not.
type linearRun struct {
	lead  uint64 // bits after one tick
	sign  uint64 // the stretch's sign bit; first and step act on the magnitude
	first uint64 // magnitude bits after two ticks
	step  int64  // ulps per tick from the second tick on
	span  int64  // ticks the stretch covers, at least 1
	cost  int64  // real ticks run to find it
}

func (r linearRun) at(j int64) float64 {
	if j == 1 {
		return math.Float64frombits(r.lead)
	}
	return math.Float64frombits(r.sign | (r.first + uint64((j-2)*r.step)))
}

// binade returns the range of magnitude bits a value may take while it
// stays in x's binade at least one ulp above the binade's floor, and
// whether x is a normal double (zeros, subnormals, infinities and NaNs have
// no such range).
func binade(x float64) (lo, hi uint64, ok bool) {
	e := math.Float64bits(x) & expMask
	return e + 1, e + 1<<fracBits - 1, e != 0 && e != expMask
}

// run returns the stretch after a. A tick that leaves a unchanged is a
// fixed point: every later tick repeats it, so the stretch is unbounded.
// Otherwise the stretch is read in a's binade from two real ticks (k1 and
// k2, the ulps each moved) or, when the first tick already left that
// binade or a is not a normal double, in the binade of the first tick's
// value from two more. It runs to the last tick whose value stays in the
// binade at least one ulp above the floor. When the additions have mixed
// signs, or the ticks read do not stay in one binade, the stretch is the
// one real tick.
func (s tickAdds) run(a float64) linearRun {
	a1 := s.tick(a)
	r := linearRun{lead: math.Float64bits(a1), span: 1, cost: 1}
	if r.lead == math.Float64bits(a) {
		r.first, r.span = r.lead, math.MaxInt64
		return r
	}
	if !s.sameSign() {
		return r
	}
	j0, next := int64(1), a1 // next is the value after j0 ticks
	lo, hi, ok := binade(a)
	sign := math.Float64bits(a) & signBit
	if m := r.lead ^ sign; !ok || m < lo || m > hi {
		j0, next = 2, s.tick(a1)
		r.cost = 2
		if lo, hi, ok = binade(a1); !ok {
			return r
		}
		sign = r.lead & signBit
		if m := math.Float64bits(next) ^ sign; m < lo || m > hi {
			return r
		}
	}
	after := s.tick(next)
	r.cost++
	m0, m1 := math.Float64bits(next)^sign, math.Float64bits(after)^sign
	if m1 < lo || m1 > hi {
		return r
	}
	r.sign, r.step = sign, int64(m1)-int64(m0)
	r.first = m0 + uint64((2-j0)*r.step)
	switch {
	case r.step == 0:
		r.span = math.MaxInt64
	case r.step > 0:
		r.span = 2 + int64(hi-r.first)/r.step
	default:
		r.span = 2 + int64(r.first-lo)/-r.step
	}
	return r
}

// plainTicks is the stretch below which a real loop beats a jump: the
// jump's two real ticks, range checks and bit arithmetic cost about what
// this many plain additions do. Stretches this short — pipeline windows
// run a few ticks between blocking — are stepped. It only steers which
// path computes a value; both give the same bits.
const plainTicks = 32

// advance returns a after n ticks, bit for bit the value n real ticks
// leave, and the number of real ticks it ran to get there: O(binade
// crossings), not O(n), once n exceeds plainTicks.
func (s tickAdds) advance(a float64, n int64) (float64, int64) {
	if n <= plainTicks {
		for i := int64(0); i < n; i++ {
			a = s.tick(a)
		}
		return a, n
	}
	var cost int64
	for n > 0 {
		r := s.run(a)
		j := min(r.span, n)
		a = r.at(j)
		n -= j
		cost += r.cost
	}
	return a, cost
}

// jump advances one window accumulator of m by n ticks of s. It counts the
// accumulator ticks advanced and the real ticks spent on them, so tests can
// tell a working jump from one an over-strict guard has silently reduced
// to a loop.
func (m *Machine) jump(s tickAdds, a float64, n int64) float64 {
	a, cost := s.advance(a, n)
	m.jumpTicks += n
	m.jumpCost += cost
	return a
}

// unitWalk is what a completion search learned about a thread's
// remaining: its value val after base ticks and, when run is set, the
// linear stretch after that, so the window's accrual can read remaining at
// its final tick instead of walking the binades again. cost counts the real
// ticks the search ran.
type unitWalk struct {
	base int64
	val  float64
	run  linearRun
	cost int64
}

// at returns remaining after j ticks, if the walk passed it.
func (w *unitWalk) at(j int64) (float64, bool) {
	switch {
	case j == w.base:
		return w.val, true
	case j > w.base && j-w.base <= w.run.span:
		return w.run.at(j - w.base), true
	}
	return 0, false
}

// unitCompletes is execute's test for a thread with remaining work r at
// speed whose unit completes within its share of the tick.
func unitCompletes(r, speed, share float64) bool { return r/speed*1e6 <= share }

// search returns the first of the next n ticks whose pre-tick check finds
// the unit of a thread with this remaining completing (unitCompletes) — or
// n when none of them does, and leaves the walk that found it in w.
// remaining falls by done every tick and the check is monotone in it, so
// within each linear stretch of remaining the first completing tick is a
// bisection.
func (w *unitWalk) search(remaining, done, speed, share float64, n int64) int64 {
	completes := func(r float64) bool { return unitCompletes(r, speed, share) }
	*w = unitWalk{val: remaining}
	if completes(w.val) {
		return 0
	}
	s := tickAdds{x: -done, reps: 1}
	for w.base < n {
		// The test has failed at every tick up to base.
		r := s.run(w.val)
		w.cost += r.cost
		span := min(r.span, n-w.base) // the stretch, up to tick n
		last := min(span, n-1-w.base) // its last tick still to check
		if last > 0 && completes(r.at(last)) {
			lo, hi := int64(0), last // the test fails at lo, holds at hi
			for hi-lo > 1 {
				mid := lo + (hi-lo)/2
				if completes(r.at(mid)) {
					hi = mid
				} else {
					lo = mid
				}
			}
			w.run = r
			return w.base + hi
		}
		if w.base+span == n {
			w.run = r // keep the stretch: an earlier window end reads it
			return n
		}
		w.val = r.at(span)
		w.base += span
	}
	return n
}
