// Package power provides the power side of the HARS reproduction:
//
//   - GroundTruth: a CMOS-style per-cluster power model (dynamic power
//     ∝ C·V²·f·utilization, plus voltage-dependent leakage and an uncore
//     term) that stands in for the physical Exynos 5422. It implements
//     sim.PowerModel and is deliberately *richer* than what HARS assumes, so
//     that fitting the paper's linear model is a genuine approximation step,
//     exactly as on the real board.
//   - Sensor: a sampled power meter with the ODROID-XU3's 263,808 µs
//     sampling period.
//   - Microbench: the paper's profiling microbenchmark — a configurable
//     duty-cycled load over (cores × frequency × utilization).
//   - LinearModel: the paper's estimator form P = α·(C_U·U_U) + β per
//     cluster and frequency level, fitted from profiled sensor data with
//     least squares (Equations 3.1 and 3.2).
package power

import (
	"fmt"
	"sync"

	"repro/internal/hmp"
	"repro/internal/sim"
)

// SensorPeriod is the power-sensor sampling period of the ODROID-XU3 board
// used in the paper (263,808 µs).
const SensorPeriod sim.Time = 263_808

// ClusterParams are the ground-truth power parameters of one cluster.
type ClusterParams struct {
	// DynCoeff is dynamic power in W per V² per GHz for one fully busy core.
	DynCoeff float64
	// LeakPerVolt is leakage in W per volt for one powered core.
	LeakPerVolt float64
	// Uncore is the cluster-shared power (interconnect, L2) drawn while the
	// cluster has any busy core; an idle cluster draws UncoreIdleFrac of it.
	Uncore         float64
	UncoreIdleFrac float64
}

// GroundTruth is the "real hardware" power model of the simulated board.
type GroundTruth struct {
	Plat   *hmp.Platform
	Params [hmp.NumClusters]ClusterParams

	// Per-level constants hoisted out of the per-tick ClusterPower call,
	// built once on first use (tablesOnce makes the build safe under the
	// concurrent sharing oracle.FindStatic's parallel sweep does):
	// dynCoef[k][lv] = DynCoeff·V²·f_GHz (the multiplier of effUtil per
	// busy core) and leakW[k][lv] = LeakPerVolt·V·cores. Plat and Params
	// must not be mutated after the first ClusterPower call.
	tablesOnce sync.Once
	dynCoef    [hmp.NumClusters][]float64
	leakW      [hmp.NumClusters][]float64
}

// buildTables precomputes the per-level constants, preserving the exact
// multiplication order of the historical per-call computation so energy
// accounting stays bit-for-bit identical.
func (g *GroundTruth) buildTables() {
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		c := &g.Plat.Clusters[k]
		prm := &g.Params[k]
		n := c.Levels()
		g.dynCoef[k] = make([]float64, n)
		g.leakW[k] = make([]float64, n)
		for lv := 0; lv < n; lv++ {
			v := float64(c.MilliVolt(lv)) / 1000
			fGHz := float64(c.KHz(lv)) / 1e6
			g.dynCoef[k][lv] = prm.DynCoeff * v * v * fGHz
			g.leakW[k][lv] = prm.LeakPerVolt * v * float64(c.Cores)
		}
	}
}

// DefaultGroundTruth returns Exynos-5422-flavoured parameters: a big cluster
// drawing ≈6–7 W fully loaded at 1.6 GHz and a little cluster drawing
// ≈1.5 W at 1.3 GHz. The per-level tables are built eagerly (the parameters
// are fixed here, so the "no mutation after first use" rule is trivially
// met): construction pays the allocations, and the first tick of a run —
// possibly deep inside a fleet's timed hot loop, once per node — does not.
func DefaultGroundTruth(p *hmp.Platform) *GroundTruth {
	g := &GroundTruth{
		Plat: p,
		Params: [hmp.NumClusters]ClusterParams{
			hmp.Little: {DynCoeff: 0.20, LeakPerVolt: 0.030, Uncore: 0.10, UncoreIdleFrac: 0.25},
			hmp.Big:    {DynCoeff: 0.85, LeakPerVolt: 0.180, Uncore: 0.35, UncoreIdleFrac: 0.25},
		},
	}
	g.tablesOnce.Do(g.buildTables)
	return g
}

// effUtil is the mild non-linearity of dynamic power in utilization
// (pipeline and memory effects); it keeps the paper's linear model an
// approximation rather than an identity.
func effUtil(u float64) float64 { return 0.85*u + 0.15*u*u }

// clusterPowerWithLeak is the dynamic + uncore computation shared by both
// entry points; the caller supplies the leakage watts so the operation order
// — and therefore the bit pattern — is identical whichever path runs.
func (g *GroundTruth) clusterPowerWithLeak(k hmp.ClusterKind, level int, coreBusy []float64, leak float64) float64 {
	coef := g.dynCoef[k][level]
	prm := &g.Params[k]
	dyn := 0.0
	anyBusy := false
	for _, u := range coreBusy {
		if u > 0 {
			anyBusy = true
		}
		dyn += coef * effUtil(u)
	}
	uncore := prm.Uncore * prm.UncoreIdleFrac
	if anyBusy {
		uncore = prm.Uncore
	}
	return dyn + leak + uncore
}

// ClusterPower implements sim.PowerModel.
func (g *GroundTruth) ClusterPower(k hmp.ClusterKind, level int, coreBusy []float64) float64 {
	g.tablesOnce.Do(g.buildTables)
	level = g.Plat.Clusters[k].ClampLevel(level)
	return g.clusterPowerWithLeak(k, level, coreBusy, g.leakW[k][level])
}

// ClusterPowerOnline implements sim.OnlinePowerModel: a hotplugged-off core
// is power-gated, so it stops contributing leakage to its cluster. Dynamic
// power needs no adjustment — an offline core executes nothing, so its busy
// fraction is zero — and the uncore term is cluster-shared, drawn as long as
// the cluster domain itself is powered. With every core online the result is
// bit-for-bit ClusterPower's (the leakage expression repeats the table
// build's exact operation order).
func (g *GroundTruth) ClusterPowerOnline(k hmp.ClusterKind, level int, coreBusy []float64, onlineCores int) float64 {
	g.tablesOnce.Do(g.buildTables)
	c := &g.Plat.Clusters[k]
	level = c.ClampLevel(level)
	if onlineCores < 0 {
		onlineCores = 0
	} else if onlineCores > c.Cores {
		onlineCores = c.Cores
	}
	v := float64(c.MilliVolt(level)) / 1000
	leak := g.Params[k].LeakPerVolt * v * float64(onlineCores)
	return g.clusterPowerWithLeak(k, level, coreBusy, leak)
}

// Sample is one power-sensor reading: average cluster watts over one
// sampling window ending at T.
type Sample struct {
	T       sim.Time
	WattsBy [hmp.NumClusters]float64
}

// Sensor periodically samples per-cluster average power from the machine's
// energy counters, as the board's INA231 sensors do, once every
// SensorPeriod. It is a sim.Daemon; the zero value is ready to use.
type Sensor struct {
	samples    []Sample
	lastEnergy [hmp.NumClusters]float64
	lastT      sim.Time
	started    bool
}

// Tick implements sim.Daemon.
func (s *Sensor) Tick(m *sim.Machine) {
	now := m.Now()
	if !s.started {
		s.started = true
		s.lastT = now
		for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
			s.lastEnergy[k] = m.ClusterEnergyJ(k)
		}
		return
	}
	if now-s.lastT < SensorPeriod {
		return
	}
	dt := sim.Seconds(now - s.lastT)
	var smp Sample
	smp.T = now
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		e := m.ClusterEnergyJ(k)
		smp.WattsBy[k] = (e - s.lastEnergy[k]) / dt
		s.lastEnergy[k] = e
	}
	s.lastT = now
	s.samples = append(s.samples, smp)
}

// Samples returns the collected readings.
func (s *Sensor) Samples() []Sample { return s.samples }

// MeanWatts averages the collected readings for cluster k.
func (s *Sensor) MeanWatts(k hmp.ClusterKind) float64 {
	if len(s.samples) == 0 {
		return 0
	}
	t := 0.0
	for _, smp := range s.samples {
		t += smp.WattsBy[k]
	}
	return t / float64(len(s.samples))
}

// LinearModel is the paper's power-estimator form, one (α, β) pair per
// cluster per frequency level:
//
//	P_k = α_{k,f} · C_U · U_U + β_{k,f}            (Equations 3.1, 3.2)
type LinearModel struct {
	Alpha [hmp.NumClusters][]float64
	Beta  [hmp.NumClusters][]float64
	// R2 is the per-cluster, per-level goodness of fit of the regression.
	R2 [hmp.NumClusters][]float64
}

// SyntheticLinearModel returns the repository's standard hand-written model
// fixture: α = 0.5·f/f₀ and β = 0.2 at every level of both clusters. The
// golden-digest equivalence tests, the tracked search benchmarks, and the
// scenario engine's default estimator model all share this one definition,
// so they are guaranteed to score candidates identically.
func SyntheticLinearModel(plat *hmp.Platform) *LinearModel {
	lm := &LinearModel{}
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		n := plat.Clusters[k].Levels()
		lm.Alpha[k] = make([]float64, n)
		lm.Beta[k] = make([]float64, n)
		for lv := 0; lv < n; lv++ {
			lm.Alpha[k][lv] = 0.5 * plat.FreqScale(k, lv)
			lm.Beta[k][lv] = 0.2
		}
	}
	return lm
}

// Estimate returns the estimated cluster power for coresUsed cores at
// average utilization util. Zero used cores estimate zero watts: the
// estimator treats an unused cluster as power-gated, matching the paper's
// application-attributed accounting.
func (lm *LinearModel) Estimate(k hmp.ClusterKind, level int, coresUsed int, util float64) float64 {
	if coresUsed <= 0 {
		return 0
	}
	if level < 0 {
		level = 0
	}
	if level >= len(lm.Alpha[k]) {
		level = len(lm.Alpha[k]) - 1
	}
	p := lm.Alpha[k][level]*float64(coresUsed)*util + lm.Beta[k][level]
	if p < 0 {
		return 0
	}
	return p
}

// String summarizes the model.
func (lm *LinearModel) String() string {
	return fmt.Sprintf("power.LinearModel{big levels: %d, little levels: %d}",
		len(lm.Alpha[hmp.Big]), len(lm.Alpha[hmp.Little]))
}
