package power

import (
	"math"
	"testing"

	"repro/internal/hmp"
	"repro/internal/sim"
)

func fullBusy(n int) []float64 {
	u := make([]float64, n)
	for i := range u {
		u[i] = 1
	}
	return u
}

func TestGroundTruthShape(t *testing.T) {
	plat := hmp.Default()
	gt := DefaultGroundTruth(plat)

	idle := make([]float64, 4)
	big0 := gt.ClusterPower(hmp.Big, 0, idle)
	if big0 <= 0 {
		t.Fatal("idle big cluster should still leak power")
	}
	bigMaxFull := gt.ClusterPower(hmp.Big, 8, fullBusy(4))
	littleMaxFull := gt.ClusterPower(hmp.Little, 5, fullBusy(4))
	if bigMaxFull < 4 || bigMaxFull > 11 {
		t.Errorf("big cluster at max = %.2f W, want 4-11 W (A15-like)", bigMaxFull)
	}
	if littleMaxFull < 0.8 || littleMaxFull > 2.5 {
		t.Errorf("little cluster at max = %.2f W, want 0.8-2.5 W (A7-like)", littleMaxFull)
	}
	if bigMaxFull/littleMaxFull < 3 {
		t.Errorf("big/little power ratio = %.2f, want > 3", bigMaxFull/littleMaxFull)
	}
}

func TestGroundTruthMonotone(t *testing.T) {
	plat := hmp.Default()
	gt := DefaultGroundTruth(plat)
	// Monotone in frequency level.
	for lv := 1; lv <= 8; lv++ {
		if gt.ClusterPower(hmp.Big, lv, fullBusy(4)) <= gt.ClusterPower(hmp.Big, lv-1, fullBusy(4)) {
			t.Errorf("big power not monotone in level at %d", lv)
		}
	}
	// Monotone in utilization.
	prev := -1.0
	for _, u := range []float64{0, 0.25, 0.5, 0.75, 1} {
		w := gt.ClusterPower(hmp.Little, 3, []float64{u, u, u, u})
		if w <= prev {
			t.Errorf("little power not monotone in util at %v", u)
		}
		prev = w
	}
	// Monotone in busy core count.
	prev = -1.0
	for n := 0; n <= 4; n++ {
		busy := make([]float64, 4)
		for i := 0; i < n; i++ {
			busy[i] = 1
		}
		w := gt.ClusterPower(hmp.Big, 4, busy)
		if w <= prev {
			t.Errorf("big power not monotone in busy cores at %d", n)
		}
		prev = w
	}
}

func TestSensorSampling(t *testing.T) {
	plat := hmp.Default()
	gt := DefaultGroundTruth(plat)
	m := sim.New(plat, sim.Config{Power: gt})
	bench := &Microbench{Threads: 2, Util: 1, Period: 10 * sim.Millisecond, Speed: plat.FreqScale(hmp.Big, 8)}
	p := m.Spawn("b", bench, 4)
	p.SetAffinity(0, hmp.MaskOf(4))
	p.SetAffinity(1, hmp.MaskOf(5))
	s := &Sensor{}
	m.AddDaemon(s)
	m.Run(3 * sim.Second)
	want := int(3*sim.Second/SensorPeriod) - 1
	if n := len(s.Samples()); n < want || n > want+2 {
		t.Fatalf("sensor samples = %d, want ≈%d", n, want)
	}
	// Mean sensor power should match the machine's energy counter.
	meanTotal := s.MeanWatts(hmp.Big) + s.MeanWatts(hmp.Little)
	if math.Abs(meanTotal-m.AvgPowerW()) > 0.15 {
		t.Errorf("sensor mean %.3f W vs machine avg %.3f W", meanTotal, m.AvgPowerW())
	}
	if s.MeanWatts(hmp.Big) <= s.MeanWatts(hmp.Little) {
		t.Error("busy big cluster should outdraw idle little cluster")
	}
}

func TestSensorEmpty(t *testing.T) {
	s := &Sensor{}
	if s.MeanWatts(hmp.Big) != 0 {
		t.Error("MeanWatts on empty sensor should be 0")
	}
}

func TestMicrobenchDutyCycle(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	m.SetLevel(hmp.Little, 0)
	bench := &Microbench{Threads: 1, Util: 0.5, Period: 10 * sim.Millisecond, Speed: 1.0}
	p := m.Spawn("b", bench, 4)
	p.SetAffinity(0, hmp.MaskOf(0))
	m.Run(10 * sim.Second)
	// 50% duty cycle on a 1 unit/s core → ≈5 units of work, ≈50% util.
	if got := p.WorkDone(); math.Abs(got-5) > 0.3 {
		t.Errorf("WorkDone = %v, want ≈5", got)
	}
	if u := m.Util(0); math.Abs(u-0.5) > 0.05 {
		t.Errorf("core util = %v, want ≈0.5", u)
	}
}

func quickProfileCfg() ProfileConfig {
	return ProfileConfig{
		Utils:  []float64{0.5, 1.0},
		RunPer: 600 * sim.Millisecond,
	}
}

func TestProfileAndFit(t *testing.T) {
	plat := hmp.Default()
	gt := DefaultGroundTruth(plat)
	lm, err := ProfileAndFit(plat, gt, quickProfileCfg())
	if err != nil {
		t.Fatal(err)
	}
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		levels := plat.Clusters[k].Levels()
		if len(lm.Alpha[k]) != levels || len(lm.Beta[k]) != levels {
			t.Fatalf("model for %s has wrong level count", k)
		}
		for lv := 0; lv < levels; lv++ {
			if lm.Alpha[k][lv] <= 0 {
				t.Errorf("%s level %d: alpha = %v, want > 0", k, lv, lm.Alpha[k][lv])
			}
			if lm.R2[k][lv] < 0.95 {
				t.Errorf("%s level %d: R² = %v, want ≥ 0.95", k, lv, lm.R2[k][lv])
			}
		}
		// Alpha grows with frequency (dynamic power scaling).
		if lm.Alpha[k][levels-1] <= lm.Alpha[k][0] {
			t.Errorf("%s: alpha not increasing with frequency", k)
		}
	}
	// The fitted model should predict ground truth within ~15% at a busy
	// on-grid point.
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		lv := plat.Clusters[k].MaxLevel()
		truth := gt.ClusterPower(k, lv, fullBusy(plat.Clusters[k].Cores))
		est := lm.Estimate(k, lv, plat.Clusters[k].Cores, 1.0)
		if rel := math.Abs(est-truth) / truth; rel > 0.15 {
			t.Errorf("%s max: est %.2f vs truth %.2f (rel %.2f)", k, est, truth, rel)
		}
	}
}

func TestLinearModelEstimateEdges(t *testing.T) {
	lm := &LinearModel{}
	lm.Alpha[hmp.Big] = []float64{1, 2}
	lm.Beta[hmp.Big] = []float64{0.5, 0.5}
	lm.Alpha[hmp.Little] = []float64{0.2}
	lm.Beta[hmp.Little] = []float64{-5} // pathological negative intercept

	if got := lm.Estimate(hmp.Big, 1, 0, 1); got != 0 {
		t.Errorf("zero cores should estimate 0, got %v", got)
	}
	if got := lm.Estimate(hmp.Big, 99, 2, 0.5); got != 2*2*0.5+0.5 {
		t.Errorf("level clamp high failed: %v", got)
	}
	if got := lm.Estimate(hmp.Big, -3, 1, 1); got != 1*1*1+0.5 {
		t.Errorf("level clamp low failed: %v", got)
	}
	if got := lm.Estimate(hmp.Little, 0, 1, 0.5); got != 0 {
		t.Errorf("negative estimates clamp to 0, got %v", got)
	}
	if lm.String() == "" {
		t.Error("String empty")
	}
}

func TestFitLinearModelErrors(t *testing.T) {
	plat := hmp.Default()
	if _, err := FitLinearModel(plat, nil); err == nil {
		t.Error("fitting with no points should error")
	}
	// Degenerate: all points at the same x.
	var pts []ProfilePoint
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		for lv := 0; lv < plat.Clusters[k].Levels(); lv++ {
			pts = append(pts,
				ProfilePoint{Cluster: k, Level: lv, Cores: 1, Util: 1, Watts: 2},
				ProfilePoint{Cluster: k, Level: lv, Cores: 1, Util: 1, Watts: 2.1})
		}
	}
	if _, err := FitLinearModel(plat, pts); err == nil {
		t.Error("constant-x profile should be degenerate")
	}
}
