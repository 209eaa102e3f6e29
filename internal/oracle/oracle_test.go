package oracle_test

import (
	"testing"

	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/oracle"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

func opts(t *testing.T, bigFactor float64) oracle.Options {
	t.Helper()
	plat := hmp.Default()
	return oracle.Options{
		Plat:  plat,
		Power: power.DefaultGroundTruth(plat),
		NewProgram: func() sim.Program {
			return &workload.DataParallel{
				AppName: "probe", Threads: 8,
				BigFactor: bigFactor,
				Unit:      workload.ConstUnit(0.5),
			}
		},
		Warmup:     1 * sim.Second,
		Measure:    2 * sim.Second,
		FreqStride: 2,
	}
}

func TestMeasureMaxState(t *testing.T) {
	o := opts(t, 1.5)
	o.Target = heartbeat.Target{Min: 1, Avg: 2, Max: 3}
	r := oracle.Measure(o, hmp.MaxState(o.Plat))
	if r.Rate <= 0 {
		t.Fatal("no rate measured at max state")
	}
	if r.PowerW <= 0 {
		t.Fatal("no power measured")
	}
	if r.NormPerf != 1 {
		t.Errorf("max state should overachieve a low target: norm = %v", r.NormPerf)
	}
}

func TestFindStaticSatisfiesTarget(t *testing.T) {
	o := opts(t, 1.5)
	// Calibrate against the max state, then target half of it.
	probe := oracle.Measure(o, hmp.MaxState(o.Plat))
	o.Target = heartbeat.TargetAround(probe.Rate, 0.5, 0.05)
	best := oracle.FindStatic(o)
	if best.Rate < o.Target.Min {
		t.Fatalf("static optimal rate %v misses target min %v", best.Rate, o.Target.Min)
	}
	// It must be much more efficient than the max state.
	maxPP := heartbeat.NormalizedPerf(o.Target, probe.Rate) / probe.PowerW
	if best.PP <= maxPP {
		t.Fatalf("static optimal PP %v not better than max-state PP %v", best.PP, maxPP)
	}
	if best.State == hmp.MaxState(o.Plat) {
		t.Error("static optimal should not be the max state for a 50% target")
	}
}

func TestFindStaticPrefersLittleForFlatWorkload(t *testing.T) {
	// With BigFactor = 1.0 (blackscholes), big cores burn more power for no
	// speedup: the oracle must lean on the little cluster, using all of it
	// and at most a couple of floor-frequency big cores.
	o := opts(t, 1.0)
	probe := oracle.Measure(o, hmp.MaxState(o.Plat))
	o.Target = heartbeat.TargetAround(probe.Rate, 0.5, 0.05)
	best := oracle.FindStatic(o)
	if best.State.LittleCores < 3 || best.State.BigCores > best.State.LittleCores {
		t.Fatalf("oracle should be little-dominant for an r=1.0 workload, got %+v", best.State)
	}
	if best.State.BigCores > 0 && best.State.BigLevel > 2 {
		t.Fatalf("any big cores must idle near the frequency floor, got %+v", best.State)
	}
}

// TestFindStaticDeterministicAcrossParallelism checks the fanned-out sweep
// against a serial Measure over every state, reduced in state order with
// the package's own selection rule: the worker pool may change only wall
// time, never the pick.
func TestFindStaticDeterministicAcrossParallelism(t *testing.T) {
	o := opts(t, 1.5)
	o.FreqStride = 3
	o.Target = heartbeat.Target{Min: 2, Avg: 2.5, Max: 3}
	got := oracle.FindStatic(o)
	var want oracle.Result
	for i, st := range hmp.AllStates(o.Plat, o.FreqStride) {
		if r := oracle.Measure(o, st); i == 0 || oracle.BetterResult(r, want, o.Target) {
			want = r
		}
	}
	if got != want {
		t.Fatalf("parallel sweep %+v vs serial %+v", got, want)
	}
}

func TestUnsatisfiableTargetPicksFastest(t *testing.T) {
	o := opts(t, 1.5)
	o.FreqStride = 3
	o.Measure = 8 * sim.Second
	o.Target = heartbeat.Target{Min: 1e6, Avg: 2e6, Max: 3e6}
	best := oracle.FindStatic(o)
	// Must pick a state whose measured rate is at the top of the sweep
	// (beat-count quantization can make near-max states tie with max).
	maxRate := oracle.Measure(o, hmp.MaxState(o.Plat)).Rate
	if best.Rate < maxRate*0.85 {
		t.Fatalf("unsatisfiable target picked rate %v, max-state rate %v (state %+v)",
			best.Rate, maxRate, best.State)
	}
}
