package gts

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hmp"
)

// loopBound is the reference for bound: each lane's load updated one tick
// at a time with decay, and checked against its threshold on every
// migration-pass tick.
func loopBound(g *Scheduler, ls []lane, n int64) int64 {
	d, gain, period := g.Decay, g.gain(), int64(g.PeriodTicks)
	for _, l := range ls {
		load := g.loads[l.id]
		for j := int64(1); j <= n; j++ {
			c := term(l.ran, gain)
			if j == 1 {
				c = term(l.ran0, gain)
			}
			load = decay(load, d, c)
			if (int64(g.ticks)+j)%period == 0 && g.crosses(load, l.up) {
				n = j - 1
				break
			}
		}
	}
	return n
}

// loopAdvance is the reference for advance: every lane's load after n
// ticks, one decay at a time.
func loopAdvance(g *Scheduler, ls []lane, n int64) []float64 {
	d, gain := g.Decay, g.gain()
	loads := slices.Clone(g.loads)
	for _, l := range ls {
		for j := int64(1); j <= n; j++ {
			c := term(l.ran, gain)
			if j == 1 {
				c = term(l.ran0, gain)
			}
			loads[l.id] = decay(loads[l.id], d, c)
		}
	}
	return loads
}

// checkLoads compares bound and advance with their references bit for bit.
func checkLoads(t *testing.T, g *Scheduler, ls []lane, n int64) {
	t.Helper()
	if got, want := g.bound(ls, n), loopBound(g, ls, n); got != want {
		t.Fatalf("bound(%v, n=%d, ticks=%d, loads=%v) = %d, want %d", ls, n, g.ticks, g.loads, got, want)
	}
	want := loopAdvance(g, ls, n)
	before := slices.Clone(g.loads)
	g.advance(ls, n)
	for i := range want {
		if math.Float64bits(g.loads[i]) != math.Float64bits(want[i]) {
			t.Fatalf("advance(%v, n=%d) from %v: load %d = %v (%#x), want %v (%#x)",
				ls, n, before, i, g.loads[i], math.Float64bits(g.loads[i]), want[i], math.Float64bits(want[i]))
		}
	}
	copy(g.loads, before)
}

// runningFixedPoint is the load a thread that runs every tick from load 0
// settles at, 23 ulps below 1024 at the default decay (1024 is a fixed
// point too).
func runningFixedPoint(g *Scheduler) float64 {
	l, gain := 0.0, g.gain()
	for {
		next := decay(l, g.Decay, gain)
		if next == l {
			return l
		}
		l = next
	}
}

// loadCase draws one load: exactly 1024, the running fixed point, 0, a
// subnormal, within a few ulps of Up or Down, or anywhere in [0, 1024].
func loadCase(rng *rand.Rand, g *Scheduler, fixed float64) float64 {
	nudge := func(x float64) float64 {
		for k := rng.Intn(9) - 4; k != 0; {
			if k > 0 {
				x, k = math.Nextafter(x, math.Inf(1)), k-1
			} else {
				x, k = math.Nextafter(x, 0), k+1
			}
		}
		return x
	}
	switch rng.Intn(7) {
	case 0:
		return LoadScale
	case 1:
		return fixed
	case 2:
		return 0
	case 3:
		return math.Float64frombits(uint64(rng.Int63n(1 << 52)))
	case 4:
		return nudge(g.Up)
	case 5:
		return nudge(g.Down)
	}
	return rng.Float64() * LoadScale
}

// TestSteadyLoadsMatchLoop checks the four-lane window recurrences, bound
// (the watched threads' first crossing at a migration pass) and advance
// (every thread's load after n ticks), bit for bit against per-tick decay
// and a per-tick pass check. Inputs mix loads at exactly 1024, at the
// running fixed point, at 0 and subnormal, and a few ulps either side of
// Up and Down; ran flags; 1 to 9 lanes, so groups of four end short; the
// four migration-pass phases; and windows up to 40,000 ticks, past the
// 34.5k a load that stopped running takes to reach its fixed point. A
// directed part holds three lanes of a group at fixed points and moves
// the fourth, in each position, so a fixed-point exit that misses a lane
// fails here.
func TestSteadyLoadsMatchLoop(t *testing.T) {
	g := New(hmp.Default())
	fixed := runningFixedPoint(g)
	if want := math.Float64frombits(math.Float64bits(LoadScale) - 23); fixed != want {
		t.Fatalf("running fixed point %v, want 1024 less 23 ulps (%v)", fixed, want)
	}
	rng := rand.New(rand.NewSource(20))
	cases := 3000
	if testing.Short() {
		cases = 300
	}
	for c := 0; c < cases; c++ {
		k := 1 + rng.Intn(9)
		g.loads = g.loads[:0]
		ls := make([]lane, k)
		for i := range ls {
			g.loads = append(g.loads, loadCase(rng, g, fixed))
			ls[i] = lane{id: i, ran0: rng.Intn(2) == 0, ran: rng.Intn(2) == 0, up: rng.Intn(2) == 0}
		}
		rng.Shuffle(k, func(i, j int) { ls[i], ls[j] = ls[j], ls[i] })
		g.ticks = 4*rng.Intn(1000) + rng.Intn(4)
		n := 1 + rng.Int63n(2000)
		if rng.Intn(4) == 0 {
			n = 1 + rng.Int63n(40_000)
		}
		checkLoads(t, g, ls, n)
	}

	// Three lanes settled (running big threads at their fixed point) and
	// one moving: a big thread that stopped running, whose load falls
	// below Down after about 64 ticks.
	for moving := 0; moving < 4; moving++ {
		for offset := 0; offset < 4; offset++ {
			g.loads = []float64{fixed, fixed, fixed, fixed}
			ls := []lane{{id: 0, ran0: true, ran: true}, {id: 1, ran0: true, ran: true}, {id: 2, ran0: true, ran: true}, {id: 3, ran0: true, ran: true}}
			g.loads[moving] = LoadScale
			ls[moving].ran0, ls[moving].ran = false, false
			g.ticks = offset
			checkLoads(t, g, ls, 200)
			checkLoads(t, g, ls, 40_000)
		}
	}
}

// FuzzSteadyLoads checks bound and advance against their references on
// arbitrary loads in [0, 1024]: lane i takes load a, b or c (by i mod 3)
// and its ran0, ran and up flags from three bits of flags.
func FuzzSteadyLoads(f *testing.F) {
	f.Add(1024.0, 700.0, 256.0, uint32(0x1b6db6), uint8(5), uint8(0), uint16(3000))
	f.Add(math.Float64frombits(math.Float64bits(1024)-23), 0.0, 5e-324, uint32(0x3f), uint8(4), uint8(3), uint16(40000))
	f.Add(700.0000000000001, 255.99999999999997, 1024.0, uint32(0x2a5a5a), uint8(9), uint8(1), uint16(77))
	f.Add(1024.0, 1024.0, 1024.0, uint32(0), uint8(1), uint8(2), uint16(1))
	f.Fuzz(func(t *testing.T, a, b, c float64, flags uint32, count, ticks uint8, n uint16) {
		g := New(hmp.Default())
		src := [3]float64{a, b, c}
		for _, l := range src {
			if !(l >= 0 && l <= LoadScale) {
				t.Skip("a load lies in [0, 1024]")
			}
		}
		k := 1 + int(count%9)
		ls := make([]lane, k)
		for i := range ls {
			g.loads = append(g.loads, src[i%3])
			bits := flags >> (3 * (i % 8))
			ls[i] = lane{id: i, ran0: bits&1 != 0, ran: bits&2 != 0, up: bits&4 != 0}
		}
		g.ticks = int(ticks)
		checkLoads(t, g, ls, 1+int64(n)%40_000)
	})
}
