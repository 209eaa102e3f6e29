package scenario

import (
	"fmt"
	"testing"

	"repro/internal/hmp"
	"repro/internal/sim"
	"repro/internal/thermal"
)

// thermalInvariants is the per-tick property suite of the closed thermal
// loop. It maintains a shadow copy of the RC model, stepped with exactly the
// inputs the governor sees — the engine registers the governor before the
// PerTick daemon, so by the time the checker runs, the governor has stepped
// its model with this tick's power and actuated; stepping the shadow with
// the same power reproduces its temperatures bit-for-bit. The checks:
// temperature never exceeds trip_c plus one tick of slack (max observed
// P·Δt/C), caps move monotonically with temperature (lowered only at or
// above throttle_c, raised only at or below release_c), and temperatures
// never fall below ambient.
type thermalInvariants struct {
	spec   thermal.Spec
	shadow *thermal.Model
	caps   [hmp.NumClusters]int
	maxW   [hmp.NumClusters]float64
	init   bool
	err    error
}

func newThermalInvariants(spec *thermal.Spec) *thermalInvariants {
	r := spec.WithDefaults()
	return &thermalInvariants{spec: r, shadow: thermal.NewModel(r)}
}

func (c *thermalInvariants) tick(m *sim.Machine) {
	if c.err != nil {
		return
	}
	if !c.init {
		c.init = true
		for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
			c.caps[k] = m.Platform().Clusters[k].MaxLevel()
		}
	}
	var watts [hmp.NumClusters]float64
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		watts[k] = m.LastTickPowerW(k)
		if watts[k] > c.maxW[k] {
			c.maxW[k] = watts[k]
		}
	}
	dt := sim.Seconds(sim.TickLen)
	c.shadow.Step(dt, watts)
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		temp := c.shadow.TempC(k)
		slack := c.shadow.MaxStepC(k, c.maxW[k], dt)
		if temp > c.spec.TripC+slack {
			c.err = fmt.Errorf("t=%d: %s at %.4f°C exceeds trip %.1f + one-tick slack %.4f",
				m.Now(), k, temp, c.spec.TripC, slack)
			return
		}
		if temp < c.spec.AmbientC-1e-9 {
			c.err = fmt.Errorf("t=%d: %s at %.4f°C dropped below ambient %.1f", m.Now(), k, temp, c.spec.AmbientC)
			return
		}
		cap := m.LevelCap(k)
		switch {
		case cap < c.caps[k] && temp < c.spec.ThrottleC:
			c.err = fmt.Errorf("t=%d: %s cap lowered %d->%d at %.4f°C, below throttle_c %.1f",
				m.Now(), k, c.caps[k], cap, temp, c.spec.ThrottleC)
			return
		case cap > c.caps[k] && temp > c.spec.ReleaseC:
			c.err = fmt.Errorf("t=%d: %s cap raised %d->%d at %.4f°C, above release_c %.1f",
				m.Now(), k, c.caps[k], cap, temp, c.spec.ReleaseC)
			return
		}
		c.caps[k] = cap
	}
}

// runThermalSeeds drives seeded random thermal scenarios (closed loop,
// periodic pulse events, hotplug) through one manager kind with the thermal
// per-tick invariants and the engine's strict checks.
func runThermalSeeds(t *testing.T, manager string, seeds int) {
	t.Helper()
	for seed := int64(1); seed <= int64(seeds); seed++ {
		sc := Generate(seed, GenConfig{
			Manager: manager, DurationMS: 15000, Events: 8,
			Thermal: true, Periodic: true,
		})
		// Half the seeds pin the loop into the aggressive regime: a narrow
		// band plus a sluggish step period guarantees the emergency trip
		// path is exercised under sustained load, not just the graduated
		// one.
		if seed%2 == 0 {
			sc.Thermal = &thermal.Spec{Enabled: true, ReleaseC: 66, ThrottleC: 68, TripC: 71, PeriodTicks: 400}
		}
		chk := newThermalInvariants(sc.Thermal)
		res, err := Run(sc, Options{Strict: true, PerTick: chk.tick})
		if err != nil {
			t.Fatalf("%s seed %d: %v", manager, seed, err)
		}
		if chk.err != nil {
			t.Fatalf("%s seed %d: %v", manager, seed, chk.err)
		}
		if res.Thermal == nil {
			t.Fatalf("%s seed %d: thermal scenario returned no governor", manager, seed)
		}
		// The shadow model must have tracked the governor's bit-for-bit.
		for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
			if got, want := res.Thermal.TempC(k), chk.shadow.TempC(k); got != want {
				t.Fatalf("%s seed %d: governor %s temp %v != shadow model %v",
					manager, seed, k, got, want)
			}
			if res.Thermal.PeakC(k) < res.Thermal.Spec().AmbientC {
				t.Fatalf("%s seed %d: %s peak %.2f below ambient", manager, seed, k, res.Thermal.PeakC(k))
			}
		}
	}
}

func TestThermalPropertyHARSE(t *testing.T)  { runThermalSeeds(t, ManagerHARSE, 6) }
func TestThermalPropertyMPHARS(t *testing.T) { runThermalSeeds(t, ManagerMPHARSI, 6) }
func TestThermalPropertyUnmanaged(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runThermalSeeds(t, ManagerNone, 4)
}

// TestThermalReplayByteIdentical pins determinism with the loop closed: the
// same thermal scenario replayed twice produces the same trace digest,
// temperatures, and throttle statistics.
func TestThermalReplayByteIdentical(t *testing.T) {
	sc := Generate(3, GenConfig{Manager: ManagerHARSE, DurationMS: 12000, Events: 6, Thermal: true, Periodic: true})
	a, err := Run(sc, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceDigest != b.TraceDigest {
		t.Fatalf("replay digest %016x != %016x", a.TraceDigest, b.TraceDigest)
	}
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		if a.Thermal.TempC(k) != b.Thermal.TempC(k) || a.Thermal.PeakC(k) != b.Thermal.PeakC(k) {
			t.Fatalf("%s temperatures differ across replays", k)
		}
	}
	if a.Thermal.Throttles() != b.Thermal.Throttles() || a.Thermal.Releases() != b.Thermal.Releases() {
		t.Fatal("governor statistics differ across replays")
	}
}

// TestThermalThrottlesUnderLoad checks the loop actually closes: a saturating
// run must heat the big cluster into the throttle zone and move the ceilings
// without any scripted dvfs_cap event.
func TestThermalThrottlesUnderLoad(t *testing.T) {
	// 40 s: the SW workload draws ≈ 5 W on the big cluster (steady state
	// ≈ 77 °C), crossing the default 67.5 °C throttle threshold after
	// roughly 17 s of the 10 s-time-constant rise.
	sc := &Scenario{
		Name:       "thermal-load",
		Manager:    ManagerNone,
		DurationMS: 40000,
		Apps:       []AppSpec{{Name: "sw", Bench: "SW", Threads: 8}},
		Thermal:    &thermal.Spec{Enabled: true},
	}
	res, err := Run(sc, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	gov := res.Thermal
	if gov == nil {
		t.Fatal("no governor")
	}
	if gov.Throttles() == 0 {
		t.Fatalf("big peak %.1f°C: saturating run never throttled", gov.PeakC(hmp.Big))
	}
	spec := gov.Spec()
	if gov.PeakC(hmp.Big) < spec.ThrottleC {
		t.Fatalf("big peak %.1f°C never reached throttle_c %.1f", gov.PeakC(hmp.Big), spec.ThrottleC)
	}
	if gov.PeakC(hmp.Big) > spec.TripC+0.1 {
		t.Fatalf("big peak %.1f°C exceeded trip %.1f", gov.PeakC(hmp.Big), spec.TripC)
	}
}
