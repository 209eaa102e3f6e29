// Package oracle implements the paper's static runs: an application held in
// one system state under the Linux HMP scheduler (GTS) and measured after a
// warm-up. Measure is the one such run; the max-rate calibration, the
// Baseline version and the static-optimal (SO) version all call it.
// FindStatic is the SO baseline's offline sweep: it measures every
// available state's actual performance and power (the paper's offline
// simulations) on all CPUs, then picks the state with the best normalized
// performance per watt among those that satisfy the target. The chosen
// state is applied statically and the application runs under GTS, exactly
// as the paper's SO version does.
package oracle

import (
	"runtime"
	"sync"

	"repro/internal/gts"
	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/sim"
)

// Options configures a static run (Measure) and the offline sweep
// (FindStatic), which fans its probes out over all CPUs.
type Options struct {
	Plat *hmp.Platform
	// Power is the model standing in for the physical board; nil means no
	// energy accounting (PowerW and PP read 0).
	Power sim.PowerModel
	// NewProgram builds a fresh instance of the application per probe run
	// (programs carry run state).
	NewProgram func() sim.Program
	// Target is the performance target the chosen state must satisfy.
	Target heartbeat.Target
	// Warmup is simulated time discarded before measuring; it must cover
	// any heartbeat-less startup phase of the application. Required.
	Warmup sim.Time
	// Measure is the simulated measurement window per state. Required and
	// positive: rate and power are averaged over it.
	Measure sim.Time
	// FreqStride coarsens FindStatic's frequency grids (1 = full grid).
	FreqStride int
}

func (o Options) withDefaults() Options {
	if o.FreqStride < 1 {
		o.FreqStride = 1
	}
	return o
}

// Result is the measured outcome of one state probe.
type Result struct {
	State    hmp.State
	Rate     float64 // measured heartbeat rate
	NormPerf float64
	PowerW   float64
	PP       float64 // normalized perf per watt
}

// Measure probes a single state: the application runs under GTS restricted
// to the state's cores and frequencies, and rate/power are measured over
// the Measure window that follows Warmup.
func Measure(o Options, st hmp.State) Result {
	o = o.withDefaults()
	m := sim.New(o.Plat, sim.Config{Power: o.Power})
	m.SetLevel(hmp.Big, st.BigLevel)
	m.SetLevel(hmp.Little, st.LittleLevel)
	g := gts.New(o.Plat)
	g.SetAllowed(st.Cpuset(o.Plat))
	m.SetPlacer(g)
	p := m.Spawn("probe", o.NewProgram(), heartbeat.DefaultWindow)
	m.Run(o.Warmup)
	e0, t0 := m.EnergyJ(), m.Now()
	m.Run(o.Measure)
	dt := sim.Seconds(m.Now() - t0)
	res := Result{
		State:  st,
		Rate:   p.HB.RateOver(t0, m.Now()),
		PowerW: (m.EnergyJ() - e0) / dt,
	}
	res.NormPerf = heartbeat.NormalizedPerf(o.Target, res.Rate)
	if res.PowerW > 0 {
		res.PP = res.NormPerf / res.PowerW
	}
	return res
}

// FindStatic sweeps all states, probing them on all CPUs, and returns the
// static optimal. Results are reduced in state order, so the outcome does
// not depend on the CPU count. The selection rule matches the runtime
// search: a state satisfying the target minimum beats any that does not;
// among satisfying states the best normalized-perf-per-watt wins;
// otherwise the highest rate wins.
func FindStatic(o Options) Result {
	o = o.withDefaults()
	states := hmp.AllStates(o.Plat, o.FreqStride)
	results := make([]Result, len(states))
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = Measure(o, states[i])
			}
		}()
	}
	for i := range states {
		idx <- i
	}
	close(idx)
	wg.Wait()
	best := results[0]
	for _, r := range results[1:] {
		if betterResult(r, best, o.Target) {
			best = r
		}
	}
	return best
}

func betterResult(cand, best Result, tgt heartbeat.Target) bool {
	candOK := cand.Rate >= tgt.Min
	bestOK := best.Rate >= tgt.Min
	switch {
	case candOK && bestOK:
		return cand.PP > best.PP
	case candOK:
		return true
	case bestOK:
		return false
	default:
		return cand.Rate > best.Rate
	}
}
