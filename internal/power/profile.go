package power

import (
	"fmt"

	"repro/internal/hmp"
	"repro/internal/linreg"
	"repro/internal/sim"
)

// Microbench is the paper's profiling microbenchmark: it "stresses the cores
// and memory with running tasks" and "can configure the number of cores,
// frequency level, and CPU utilization". Each thread is duty-cycled: it
// burns CPU for util×period then sleeps for the rest of the period.
type Microbench struct {
	Threads int
	Util    float64  // duty cycle in (0, 1]
	Period  sim.Time // duty-cycle period
	Speed   float64  // units/s the pinned core retires (freq scale)

	deadline []sim.Time // next cycle start per thread
}

// Name implements sim.Program.
func (b *Microbench) Name() string { return "microbench" }

// NumThreads implements sim.Program.
func (b *Microbench) NumThreads() int { return b.Threads }

func (b *Microbench) burst() float64 {
	return b.Speed * b.Util * sim.Seconds(b.Period)
}

// Start implements sim.Program.
func (b *Microbench) Start(p *sim.Process) {
	b.deadline = make([]sim.Time, b.Threads)
	for i := 0; i < b.Threads; i++ {
		b.deadline[i] = p.Now() + b.Period
		p.SetWork(i, b.burst())
	}
}

// UnitDone implements sim.Program. Each cycle starts on a fixed deadline
// grid so the achieved utilization matches Util exactly regardless of tick
// quantization.
func (b *Microbench) UnitDone(p *sim.Process, local int) {
	if b.Util >= 1 {
		p.SetWork(local, b.burst())
		return
	}
	next := b.deadline[local]
	b.deadline[local] = next + b.Period
	if next <= p.Now() {
		p.SetWork(local, b.burst())
		return
	}
	p.WakeAt(local, next, b.burst())
}

// SpeedFactor implements sim.Program: the microbenchmark is pure integer
// work, equally fast per clock on both clusters.
func (b *Microbench) SpeedFactor(local int, k hmp.ClusterKind) float64 { return 1 }

// ProfilePoint is one profiled configuration and its measured power.
type ProfilePoint struct {
	Cluster hmp.ClusterKind
	Level   int
	Cores   int
	Util    float64
	Watts   float64 // sensor-measured cluster power
}

// ProfileConfig controls the profiling sweep.
type ProfileConfig struct {
	Utils  []float64 // utilization grid, default {0.25, 0.5, 0.75, 1.0}
	RunPer sim.Time  // measurement time per configuration, default 1.6 s
}

// dutyPeriod is the profiling microbenchmark's duty-cycle period.
const dutyPeriod = 10 * sim.Millisecond

func (c *ProfileConfig) withDefaults() ProfileConfig {
	out := *c
	if len(out.Utils) == 0 {
		out.Utils = []float64{0.25, 0.5, 0.75, 1.0}
	}
	if out.RunPer <= 0 {
		out.RunPer = 1600 * sim.Millisecond
	}
	return out
}

// RunProfile sweeps (cores × frequency level × utilization) for each cluster,
// measuring cluster power with the sampled sensor, and returns the profile
// data the linear models are fitted from. The ground truth gt plays the part
// of the physical board.
func RunProfile(plat *hmp.Platform, gt *GroundTruth, cfg ProfileConfig) []ProfilePoint {
	cfg = cfg.withDefaults()
	var out []ProfilePoint
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		spec := &plat.Clusters[k]
		for lv := 0; lv <= spec.MaxLevel(); lv++ {
			for cores := 1; cores <= spec.Cores; cores++ {
				for _, u := range cfg.Utils {
					w := measurePoint(plat, gt, cfg, k, lv, cores, u)
					out = append(out, ProfilePoint{
						Cluster: k, Level: lv, Cores: cores, Util: u, Watts: w,
					})
				}
			}
		}
	}
	return out
}

func measurePoint(plat *hmp.Platform, gt *GroundTruth, cfg ProfileConfig, k hmp.ClusterKind, lv, cores int, util float64) float64 {
	m := sim.New(plat, sim.Config{Power: gt})
	m.SetLevel(k, lv)
	m.SetLevel(k.Other(), 0) // keep the other cluster quiet at its floor
	bench := &Microbench{
		Threads: cores,
		Util:    util,
		Period:  dutyPeriod,
		Speed:   plat.FreqScale(k, lv),
	}
	p := m.Spawn("microbench", bench, 4)
	for i := 0; i < cores; i++ {
		p.SetAffinity(i, hmp.MaskOf(plat.CPU(k, i)))
	}
	sensor := &Sensor{}
	m.AddDaemon(sensor)
	m.Run(cfg.RunPer)
	if len(sensor.Samples()) == 0 {
		// Run too short for a full sensor window; fall back to the energy
		// counter so callers always get a measurement.
		return m.ClusterEnergyJ(k) / sim.Seconds(m.Now())
	}
	return sensor.MeanWatts(k)
}

// FitLinearModel fits the paper's per-cluster, per-level linear models
// P = α·(C_U·U_U) + β from profile data.
func FitLinearModel(plat *hmp.Platform, points []ProfilePoint) (*LinearModel, error) {
	lm := &LinearModel{}
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		levels := plat.Clusters[k].Levels()
		lm.Alpha[k] = make([]float64, levels)
		lm.Beta[k] = make([]float64, levels)
		lm.R2[k] = make([]float64, levels)
		for lv := 0; lv < levels; lv++ {
			var xs, ys []float64
			for _, pt := range points {
				if pt.Cluster != k || pt.Level != lv {
					continue
				}
				xs = append(xs, float64(pt.Cores)*pt.Util)
				ys = append(ys, pt.Watts)
			}
			if len(xs) == 0 {
				return nil, fmt.Errorf("power: no profile points for %s level %d", k, lv)
			}
			a, b, err := linreg.Fit1D(xs, ys)
			if err != nil {
				return nil, fmt.Errorf("power: fit %s level %d: %w", k, lv, err)
			}
			lm.Alpha[k][lv] = a
			lm.Beta[k][lv] = b
			yhat := make([]float64, len(xs))
			for i, x := range xs {
				yhat[i] = a*x + b
			}
			lm.R2[k][lv] = linreg.RSquared(ys, yhat)
		}
	}
	return lm, nil
}

// ProfileAndFit runs the full profiling sweep and fits the linear model in
// one call — the offline calibration pass of the paper's methodology.
func ProfileAndFit(plat *hmp.Platform, gt *GroundTruth, cfg ProfileConfig) (*LinearModel, error) {
	return FitLinearModel(plat, RunProfile(plat, gt, cfg))
}
