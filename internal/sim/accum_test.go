package sim

import (
	"math"
	"math/rand"
	"testing"
)

// loopAdvance is the reference for tickAdds.advance: n real ticks.
func loopAdvance(s tickAdds, a float64, n int64) float64 {
	for i := int64(0); i < n; i++ {
		a = s.tick(a)
	}
	return a
}

// loopCompletion is the reference for unitWalk.search: the first of n ticks
// whose pre-tick check finds the unit completing, and remaining there.
func loopCompletion(remaining, done, speed, share float64, n int64) (int64, float64) {
	for j := int64(0); j < n; j++ {
		if unitCompletes(remaining, speed, share) {
			return j, remaining
		}
		remaining -= done
	}
	return n, remaining
}

// ulp returns the spacing of the doubles at |a| (the smallest subnormal at
// zero).
func ulp(a float64) float64 {
	a = math.Abs(a)
	return math.Nextafter(a, math.Inf(1)) - a
}

// edgeCase draws a single-add tick that walks to within a few ulps of a
// binade edge after about j of its n ticks: down to the floor or up to the
// next binade, by q+f ulps a tick, where f is ½ (an exact tie) or random.
// These are the cases in which a value predicted just at the floor is not
// the value the real additions leave there.
func edgeCase(rng *rand.Rand) (tickAdds, float64, int64) {
	p := math.Ldexp(1, rng.Intn(120)-60)
	u := ulp(p)
	f := 0.5
	if rng.Intn(2) == 0 {
		f = rng.Float64()
	}
	step := float64(rng.Intn(20)) + f
	n := 1 + rng.Int63n(2000)
	dist := math.Round(float64(rng.Int63n(n)+1)*step) + float64(rng.Intn(7)-3)
	if rng.Intn(2) == 0 {
		return tickAdds{x: -step * u, reps: 1}, p + dist*u, n
	}
	return tickAdds{x: step * u, reps: 1}, 2*p - dist*u, n
}

// accumCase draws one (a, adds, n) triple. Starts are powers of two, a few
// ulps from either edge of a binade, or anywhere, of either sign; adds are
// exact ties (q+½ ulps), under half an ulp, a random fraction of the start
// (some of them negative enough to cross binades and zero), or a few
// binades above it; a tick is one add, the busy shape (a steal, then c
// shares) or the energy-total shape (two cluster energies). A third of the
// cases come from edgeCase.
func accumCase(rng *rand.Rand) (tickAdds, float64, int64) {
	if rng.Intn(3) == 0 {
		return edgeCase(rng)
	}
	p := math.Ldexp(1, rng.Intn(120)-60)
	var a float64
	switch rng.Intn(4) {
	case 0:
		a = p
	case 1: // a few ulps above the binade's floor
		a = math.Float64frombits(math.Float64bits(p) + uint64(rng.Intn(8)))
	case 2: // a few ulps below the next binade
		a = math.Float64frombits(math.Float64bits(2*p) - uint64(1+rng.Intn(8)))
	default:
		a = p * (1 + rng.Float64())
	}
	if rng.Intn(4) == 0 {
		a = -a
	}
	u := ulp(a)
	add := func() float64 {
		var x float64
		switch rng.Intn(5) {
		case 0: // an exact tie
			x = (float64(rng.Intn(1000)) + 0.5) * u
		case 1: // under half an ulp
			x = rng.Float64() * u / 2
		case 2: // a whole number of ulps
			x = float64(rng.Intn(64)) * u
		case 3:
			x = math.Abs(a) * rng.Float64() * math.Ldexp(1, -rng.Intn(20))
		default: // crosses a binade every few ticks
			x = math.Abs(a) * math.Ldexp(rng.Float64(), rng.Intn(4))
		}
		return x
	}
	neg := rng.Intn(3) == 0
	sign := func(x float64) float64 {
		if neg {
			return -x
		}
		return x
	}
	var s tickAdds
	switch rng.Intn(3) {
	case 0:
		s = tickAdds{x: sign(add()), reps: 1}
	case 1: // busy: the steal, then one share per thread
		s = tickAdds{x: sign(add()), reps: 1 + rng.Intn(3)}
		if rng.Intn(2) == 0 {
			s.pre, s.hasPre = sign(add()), true
		}
	default: // the energy total: little, then big
		s = tickAdds{pre: sign(add()), hasPre: true, x: sign(add()), reps: 1}
	}
	if rng.Intn(16) == 0 && s.hasPre { // mixed signs
		s.pre = -s.pre
	}
	return s, a, 1 + rng.Int63n(2000)
}

// checkAdvance fails t unless the jump leaves exactly the loop's bits.
func checkAdvance(t *testing.T, s tickAdds, a float64, n int64) {
	t.Helper()
	got, _ := s.advance(a, n)
	want := loopAdvance(s, a, n)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("advance(%v, %+v, %d) = %v (%#x), loop %v (%#x)",
			a, s, n, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// checkCompletion fails t unless the completion search finds the loop's
// tick and the walk reads the loop's remaining at that tick.
func checkCompletion(t *testing.T, remaining, speed, share float64, n int64) {
	t.Helper()
	done := speed * share / 1e6
	var w unitWalk
	got := w.search(remaining, done, speed, share, n)
	want, rem := loopCompletion(remaining, done, speed, share, n)
	if got != want {
		t.Fatalf("search(%v, speed %v, share %v, %d) = %d, loop %d", remaining, speed, share, n, got, want)
	}
	if r, ok := w.at(got); ok && math.Float64bits(r) != math.Float64bits(rem) {
		t.Fatalf("search(%v, speed %v, share %v, %d): walk reads %v at tick %d, loop %v",
			remaining, speed, share, n, r, got, rem)
	}
}

// TestSteadyAdvanceMatchesLoop checks the window primitives bit for bit
// against plain loops: the accumulator jump over random (a, adds, n), and
// the completion search over random units, speeds and shares.
func TestSteadyAdvanceMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := 200000
	if testing.Short() {
		cases = 20000
	}
	for i := 0; i < cases; i++ {
		s, a, n := accumCase(rng)
		checkAdvance(t, s, a, n)
	}
	for i := 0; i < cases/10; i++ {
		speed := math.Ldexp(0.5+rng.Float64(), rng.Intn(8)-4)
		share := 1000 * rng.Float64()
		if rng.Intn(4) == 0 {
			share = float64(1 + rng.Intn(1000))
		}
		done := speed * share / 1e6
		remaining := done * math.Ldexp(rng.Float64(), rng.Intn(12))
		checkCompletion(t, remaining, speed, share, 1+rng.Int63n(3000))
	}
}

// FuzzSteadyAdvance checks the same primitives on arbitrary inputs; the
// completion search with the positive, finite speed and share every plan
// thread has.
func FuzzSteadyAdvance(f *testing.F) {
	f.Add(1.0, 0.0, 1.0/3, false, uint8(1), uint16(500))
	f.Add(1.0+0x1p-50, 0.0, -0x1.8p-52, false, uint8(1), uint16(900)) // ties down to a binade floor
	f.Add(1024.0, 3.0, 333.25, true, uint8(3), uint16(2000))          // busy: steal, then three shares
	f.Add(5.5, 1.25e-3, 0.75e-3, true, uint8(1), uint16(3000))        // the energy total
	f.Add(0.5, 0.0, -0.01, false, uint8(1), uint16(120))              // through zero
	f.Add(1e16, 0.0, 0.9, false, uint8(1), uint16(100))               // under half an ulp
	f.Add(math.Inf(1), 0.0, 1.0, false, uint8(1), uint16(10))         // a fixed point
	f.Add(1.0, -2.0, 1.0, true, uint8(2), uint16(10))                 // mixed signs
	f.Fuzz(func(t *testing.T, a, pre, x float64, hasPre bool, reps uint8, n uint16) {
		s := tickAdds{pre: pre, hasPre: hasPre, x: x, reps: int(reps % 5)}
		checkAdvance(t, s, a, int64(n))
		speed, share := math.Abs(pre), math.Abs(x)
		if speed > 0 && share > 0 && !math.IsInf(speed, 0) && !math.IsInf(share, 0) && !math.IsNaN(a) {
			checkCompletion(t, a, speed, share, int64(n))
		}
	})
}
