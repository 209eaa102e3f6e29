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

// loopAdvance is the reference for advance, SteadyAdvance's whole path:
// every lane's load after n ticks, one decay at a time.
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

// checkLoads compares bound, over all the lanes and over those Settled
// would watch, and advance with their references bit for bit.
func checkLoads(t *testing.T, g *Scheduler, ls []lane, n int64) {
	t.Helper()
	want := loopBound(g, ls, n)
	if got := g.bound(ls, n); got != want {
		t.Fatalf("bound(%v, n=%d, ticks=%d, loads=%v) = %d, want %d", ls, n, g.ticks, g.loads, got, want)
	}
	var watch []lane
	for _, l := range ls {
		if g.watched(l, g.Decay, g.gain()) {
			watch = append(watch, l)
		}
	}
	if got := g.bound(watch, n); got != want {
		t.Fatalf("bound over the watched lanes %v of %v (n=%d, ticks=%d, loads=%v) = %d, want %d", watch, ls, n, g.ticks, g.loads, got, want)
	}
	loads := loopAdvance(g, ls, n)
	before := slices.Clone(g.loads)
	g.advance(slices.Clone(ls), n)
	for i := range loads {
		if math.Float64bits(g.loads[i]) != math.Float64bits(loads[i]) {
			t.Fatalf("advance(%v, n=%d) from %v: load %d = %v (%#x), want %v (%#x)",
				ls, n, before, i, g.loads[i], math.Float64bits(g.loads[i]), loads[i], math.Float64bits(loads[i]))
		}
	}
	copy(g.loads, before)
}

// fixedPoint runs the load recurrence with constant term c from load x
// until one tick leaves the load unchanged, and returns that fixed point
// and the load one tick before it, which is not one.
func fixedPoint(g *Scheduler, x, c float64) (fixed, before float64) {
	for {
		next := decay(x, g.Decay, c)
		if next == x {
			return x, before
		}
		x, before = next, x
	}
}

// runningFixedPoint is the load a thread that runs every tick from load 0
// settles at, 23 ulps below 1024 at the default decay (1024 is a fixed
// point too).
func runningFixedPoint(g *Scheduler) float64 {
	fixed, _ := fixedPoint(g, 0, g.gain())
	return fixed
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

// idleFixedPoint draws a load a thread that does not run keeps: 0, or a
// subnormal of at most 23 units, which one decay rounds back to itself.
func idleFixedPoint(rng *rand.Rand, g *Scheduler) float64 {
	l := math.Float64frombits(uint64(rng.Intn(24)))
	if decay(l, g.Decay, 0) != l {
		panic("not an idle fixed point")
	}
	return l
}

// laneCase draws one lane and its load: a settled running lane (at 1024 or
// the running fixed point, running before and in the window), a lane at a
// fixed point whose first tick feeds the other term, an idle lane, a
// settled idle lane (at 0 or a subnormal fixed point), or any load and
// flags. Its up flag is random, so a settled lane's constant load crosses
// its threshold about half the time (1024 above Up, 0 below Down).
func laneCase(rng *rand.Rand, g *Scheduler, fixed float64) (lane, float64) {
	up := rng.Intn(2) == 0
	running := []float64{fixed, LoadScale}[rng.Intn(2)]
	switch rng.Intn(6) {
	case 0:
		return lane{ran0: true, ran: true, up: up}, running
	case 1:
		if rng.Intn(2) == 0 {
			return lane{ran0: false, ran: true, up: up}, running
		}
		return lane{ran0: true, ran: false, up: up}, idleFixedPoint(rng, g)
	case 2:
		return lane{ran0: rng.Intn(2) == 0, up: up}, loadCase(rng, g, fixed)
	case 3:
		return lane{up: up}, idleFixedPoint(rng, g)
	}
	return lane{ran0: rng.Intn(2) == 0, ran: rng.Intn(2) == 0, up: up}, loadCase(rng, g, fixed)
}

// checkRandomLoads runs checkLoads on cases random lane sets of 1 to
// maxLanes lanes, each lane and its load drawn by draw, shuffled, at a
// random migration-pass phase, over windows up to 2,000 ticks and, in a
// quarter of the cases, up to 40,000.
func checkRandomLoads(t *testing.T, g *Scheduler, rng *rand.Rand, cases, maxLanes int, draw func() (lane, float64)) {
	t.Helper()
	for c := 0; c < cases; c++ {
		k := 1 + rng.Intn(maxLanes)
		g.loads = g.loads[:0]
		ls := make([]lane, k)
		for i := range ls {
			l, load := draw()
			l.id = i
			ls[i] = l
			g.loads = append(g.loads, load)
		}
		rng.Shuffle(k, func(i, j int) { ls[i], ls[j] = ls[j], ls[i] })
		g.ticks = 4*rng.Intn(1000) + rng.Intn(4)
		n := 1 + rng.Int63n(2000)
		if rng.Intn(4) == 0 {
			n = 1 + rng.Int63n(40_000)
		}
		checkLoads(t, g, ls, n)
	}
}

// TestSteadyLoadsMatchLoop checks the window recurrences, bound (the
// watched threads' first crossing at a migration pass, over every lane and
// over the lanes Settled watches) and advance (SteadyAdvance's path: every
// thread's load after n ticks), bit for bit against per-tick decay and a
// per-tick pass check, on the four migration-pass phases and windows up to
// 40,000 ticks, past the 34.5k a load that stopped running takes to reach
// its fixed point. One random part draws 1 to 9 lanes, so groups of four
// end short, with loads at 1024, at the running fixed point, at 0 and
// subnormal, a few ulps either side of Up and Down, or anywhere, and
// uniform flags. Another draws 1 to 40 lanes (see laneCase) that mix
// settled running lanes, lanes at a fixed point whose first tick feeds the
// other term, idle lanes, and settled lanes whose load crosses its
// threshold. A directed part gives each kernel a group of four in which
// three lanes reach the kernel's fixed point on the window's first tick
// and the fourth moves until it crosses its threshold, in each position,
// so a fixed-point exit that misses a lane fails here.
func TestSteadyLoadsMatchLoop(t *testing.T) {
	g := New(hmp.Default())
	fixed := runningFixedPoint(g)
	if want := math.Float64frombits(math.Float64bits(LoadScale) - 23); fixed != want {
		t.Fatalf("running fixed point %v, want 1024 less 23 ulps (%v)", fixed, want)
	}
	uniform, mixed := 3000, 1000
	if testing.Short() {
		uniform, mixed = 300, 100
	}
	rng := rand.New(rand.NewSource(20))
	checkRandomLoads(t, g, rng, uniform, 9, func() (lane, float64) {
		load := loadCase(rng, g, fixed)
		return lane{ran0: rng.Intn(2) == 0, ran: rng.Intn(2) == 0, up: rng.Intn(2) == 0}, load
	})
	rng = rand.New(rand.NewSource(21))
	checkRandomLoads(t, g, rng, mixed, 40, func() (lane, float64) { return laneCase(rng, g, fixed) })

	// Running lanes one tick below the running fixed point, on big cores
	// (so they never fall below Down), and one running from 0 on a little
	// core, which rises past Up after about 50 ticks; then idle lanes one
	// tick above a subnormal fixed point on little cores, and one idle
	// from 1024 on a big core, which falls below Down after about 64 ticks
	// and keeps decaying for about 34.5k. None is settled, so all four
	// reach advance's kernel for their group and bound's.
	_, nearRunning := fixedPoint(g, 0, g.gain())
	_, nearIdle := fixedPoint(g, LoadScale, 0)
	groups := []struct {
		near, from float64
		ran        bool
	}{{nearRunning, 0, true}, {nearIdle, LoadScale, false}}
	for _, grp := range groups {
		for moving := 0; moving < 4; moving++ {
			for offset := 0; offset < 4; offset++ {
				g.loads = []float64{grp.near, grp.near, grp.near, grp.near}
				ls := make([]lane, 4)
				for i := range ls {
					ls[i] = lane{id: i, ran0: grp.ran, ran: grp.ran, up: !grp.ran}
				}
				g.loads[moving], ls[moving].up = grp.from, grp.ran
				g.ticks = offset
				checkLoads(t, g, ls, 200)
				checkLoads(t, g, ls, 40_000)
			}
		}
	}
}

// FuzzSteadyLoads checks bound, over every lane and over the watched ones,
// and advance against their references on arbitrary loads in [0, 1024]:
// 1 to 40 lanes, lane i taking load a, b or c (by i mod 3) and its ran0,
// ran and up flags from three bits of flags (by i mod 8).
func FuzzSteadyLoads(f *testing.F) {
	fixed := math.Float64frombits(math.Float64bits(1024) - 23)
	f.Add(1024.0, 700.0, 256.0, uint32(0x1b6db6), uint8(5), uint8(0), uint16(3000))
	f.Add(fixed, 0.0, 5e-324, uint32(0x3f), uint8(4), uint8(3), uint16(40000))
	f.Add(700.0000000000001, 255.99999999999997, 1024.0, uint32(0x2a5a5a), uint8(9), uint8(1), uint16(77))
	f.Add(1024.0, 1024.0, 1024.0, uint32(0), uint8(1), uint8(2), uint16(1))
	// Fixed points, settled and not: running lanes at 1024 and below it
	// with either first tick, and idle ones at 0 and 23 subnormal units.
	f.Add(fixed, 1024.0, 1.1e-322, uint32(0x9b5a3f), uint8(39), uint8(2), uint16(500))
	f.Add(0.0, fixed, 1024.0, uint32(0xe4c2d1), uint8(23), uint8(1), uint16(36000))
	f.Fuzz(func(t *testing.T, a, b, c float64, flags uint32, count, ticks uint8, n uint16) {
		g := New(hmp.Default())
		src := [3]float64{a, b, c}
		for _, l := range src {
			if !(l >= 0 && l <= LoadScale) {
				t.Skip("a load lies in [0, 1024]")
			}
		}
		k := 1 + int(count%40)
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
