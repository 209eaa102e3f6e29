package thermal_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/hmp"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/thermal"
)

// busy is a saturating program: every thread always has work.
type busy struct{ threads int }

func (b *busy) Name() string    { return "busy" }
func (b *busy) NumThreads() int { return b.threads }
func (b *busy) Start(p *sim.Process) {
	for i := 0; i < b.threads; i++ {
		p.SetWork(i, 1)
	}
}
func (b *busy) UnitDone(p *sim.Process, local int)               { p.SetWork(local, 1) }
func (b *busy) SpeedFactor(local int, k hmp.ClusterKind) float64 { return 1 }

func TestSpecDefaults(t *testing.T) {
	r := thermal.Spec{}.WithDefaults()
	if r.AmbientC != thermal.DefaultAmbientC || r.TripC != thermal.DefaultTripC ||
		r.ReleaseC != thermal.DefaultReleaseC {
		t.Fatalf("default thresholds wrong: %+v", r)
	}
	if want := (thermal.DefaultReleaseC + thermal.DefaultTripC) / 2; r.ThrottleC != want {
		t.Fatalf("throttle default = %v, want %v", r.ThrottleC, want)
	}
	if r.InitC != r.AmbientC {
		t.Fatalf("init default = %v, want ambient %v", r.InitC, r.AmbientC)
	}
	if r.Big.CapacitanceJPerK != thermal.DefaultBigC || r.Little.ResistanceKPerW != thermal.DefaultLittleR {
		t.Fatalf("default RC wrong: big=%+v little=%+v", r.Big, r.Little)
	}
	if err := (thermal.Spec{}).Validate(); err != nil {
		t.Fatalf("zero spec must validate: %v", err)
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec thermal.Spec
		want string
	}{
		{"negative capacitance", thermal.Spec{Big: &thermal.ClusterRC{CapacitanceJPerK: -1}}, "capacitance"},
		{"negative resistance", thermal.Spec{Little: &thermal.ClusterRC{ResistanceKPerW: -2}}, "resistance"},
		{"unordered thresholds", thermal.Spec{TripC: 50, ReleaseC: 60, ThrottleC: 55}, "thresholds"},
		{"throttle above trip", thermal.Spec{ThrottleC: 80}, "thresholds"},
		{"ambient above release", thermal.Spec{AmbientC: 65}, "thresholds"},
		{"negative min level", thermal.Spec{MinLevel: -1}, "min_level"},
		{"negative period", thermal.Spec{PeriodTicks: -5}, "period_ticks"},
		{"negative coupling", thermal.Spec{CouplingWPerK: -0.5}, "coupling"},
		{"euler-unstable capacitance", thermal.Spec{Big: &thermal.ClusterRC{CapacitanceJPerK: 1e-6}}, "unstable"},
		{"euler-unstable resistance", thermal.Spec{Little: &thermal.ClusterRC{ResistanceKPerW: 1e-4}}, "unstable"},
		{"euler-unstable via coupling", thermal.Spec{CouplingWPerK: 1e6}, "unstable"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
	// Sub-zero ambients are physically valid; init_c follows the ambient
	// down by default.
	cold := thermal.Spec{AmbientC: -5}
	if err := cold.Validate(); err != nil {
		t.Fatalf("negative ambient rejected: %v", err)
	}
	if r := cold.WithDefaults(); r.InitC != -5 {
		t.Fatalf("cold init = %v, want ambient -5", r.InitC)
	}
}

func TestDecodeSpec(t *testing.T) {
	s, err := thermal.DecodeSpec(strings.NewReader(
		`{"enabled": true, "trip_c": 80, "release_c": 65, "big": {"capacitance_j_per_k": 2}}`))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Enabled || s.TripC != 80 || s.Big.CapacitanceJPerK != 2 {
		t.Fatalf("decoded = %+v", s)
	}
	if _, err := thermal.DecodeSpec(strings.NewReader(`{"tripc": 80}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	// The block has no temperature-sample cadence: sample_every_ms is an
	// unknown field here (the scenario-level field of that name is another).
	if _, err := thermal.DecodeSpec(strings.NewReader(`{"enabled":true,"sample_every_ms":100}`)); err == nil ||
		!strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("sample_every_ms: err = %v, want an unknown-field rejection", err)
	}
	if _, err := thermal.DecodeSpec(strings.NewReader(`{"trip_c": 10}`)); err == nil {
		t.Fatal("unordered thresholds accepted")
	}
}

func TestModelSteadyStateAndCooling(t *testing.T) {
	md := thermal.NewModel(thermal.Spec{})
	const watts = 6.0
	var in [hmp.NumClusters]float64
	in[hmp.Big] = watts
	// 120 s at 1 ms steps: 12 time constants, fully settled.
	for i := 0; i < 120_000; i++ {
		md.Step(0.001, in)
	}
	steady := md.SteadyC(hmp.Big, watts)
	if diff := math.Abs(md.TempC(hmp.Big) - steady); diff > 0.01 {
		t.Fatalf("big settled at %v, want steady %v (diff %v)", md.TempC(hmp.Big), steady, diff)
	}
	// No coupling: the idle little cluster stays at ambient.
	if md.TempC(hmp.Little) != md.AmbientC() {
		t.Fatalf("little drifted to %v without coupling", md.TempC(hmp.Little))
	}
	// Cut power: the hot node cools strictly monotonically toward ambient.
	in[hmp.Big] = 0
	prev := md.TempC(hmp.Big)
	for i := 0; i < 60_000; i++ {
		md.Step(0.001, in)
		cur := md.TempC(hmp.Big)
		if cur > prev {
			t.Fatalf("step %d: temperature rose %v -> %v with zero power", i, prev, cur)
		}
		prev = cur
	}
	if diff := md.TempC(hmp.Big) - md.AmbientC(); diff > 0.2 {
		t.Fatalf("big still %v above ambient after cooling", diff)
	}
}

func TestModelCoupling(t *testing.T) {
	md := thermal.NewModel(thermal.Spec{CouplingWPerK: 0.05})
	var in [hmp.NumClusters]float64
	in[hmp.Big] = 8
	for i := 0; i < 60_000; i++ {
		md.Step(0.001, in)
	}
	if md.TempC(hmp.Little) <= md.AmbientC()+1 {
		t.Fatalf("little = %v: coupling should leak heat from the big cluster", md.TempC(hmp.Little))
	}
	if md.TempC(hmp.Little) >= md.TempC(hmp.Big) {
		t.Fatalf("little (%v) hotter than the heated big node (%v)", md.TempC(hmp.Little), md.TempC(hmp.Big))
	}
}

func TestModelDeterminism(t *testing.T) {
	a := thermal.NewModel(thermal.Spec{CouplingWPerK: 0.02})
	b := thermal.NewModel(thermal.Spec{CouplingWPerK: 0.02})
	var in [hmp.NumClusters]float64
	for i := 0; i < 10_000; i++ {
		in[hmp.Big] = float64(i%7) * 1.3
		in[hmp.Little] = float64(i%3) * 0.4
		a.Step(0.001, in)
		b.Step(0.001, in)
	}
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		if a.TempC(k) != b.TempC(k) {
			t.Fatalf("cluster %s: %v != %v (replay must be bit-identical)", k, a.TempC(k), b.TempC(k))
		}
	}
}

// tripChecker asserts, after the governor has run each tick, that no cluster
// exceeds trip_c by more than one tick's temperature rise — the governor's
// ceiling guarantee — and that every ceiling move agrees with the
// temperature the governor acted on: a cap lowered on a tick needs
// throttle_c or above, a cap raised needs release_c or below. It runs after
// the governor in the same tick, so it reads the temperature the governor
// compared.
type tripChecker struct {
	gov             *thermal.Governor
	caps            [hmp.NumClusters]int // the ceilings after the previous tick
	lowered, raised int
	err             error
}

func newTripChecker(m *sim.Machine, gov *thermal.Governor) *tripChecker {
	c := &tripChecker{gov: gov}
	for k := range c.caps {
		c.caps[k] = m.LevelCap(hmp.ClusterKind(k))
	}
	return c
}

func (c *tripChecker) Tick(m *sim.Machine) {
	if c.err != nil {
		return
	}
	spec := c.gov.Spec()
	dt := sim.Seconds(sim.TickLen)
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		t := c.gov.TempC(k)
		slack := c.gov.Model().MaxStepC(k, m.LastTickPowerW(k), dt)
		if t > spec.TripC+slack {
			c.err = fmt.Errorf("t=%d: cluster %s at %.4f°C exceeds trip %.1f + slack %.4f", m.Now(), k, t, spec.TripC, slack)
			return
		}
		cap := m.LevelCap(k)
		switch {
		case cap < c.caps[k]:
			c.lowered++
			if t < spec.ThrottleC {
				c.err = fmt.Errorf("t=%d: %s cap lowered to %d at %.2f°C, below throttle_c %.1f", m.Now(), k, cap, t, spec.ThrottleC)
			}
		case cap > c.caps[k]:
			c.raised++
			if t > spec.ReleaseC {
				c.err = fmt.Errorf("t=%d: %s cap raised to %d at %.2f°C, above release_c %.1f", m.Now(), k, cap, t, spec.ReleaseC)
			}
		}
		c.caps[k] = cap
	}
}

func TestGovernorTripCeilingAndRelease(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
	// A narrow band under the trip point and a deliberately sluggish step
	// period (one level per second): full load blows through the band
	// faster than graduated stepping can react, forcing the emergency
	// clamp.
	spec := thermal.Spec{Enabled: true, ReleaseC: 70, ThrottleC: 72, TripC: 75, PeriodTicks: 1000}
	gov, err := thermal.NewGovernor(spec)
	if err != nil {
		t.Fatal(err)
	}
	m.AddDaemon(gov)
	chk := newTripChecker(m, gov)
	m.AddDaemon(chk)

	p := m.Spawn("busy", &busy{threads: 8}, 10)
	m.Run(20 * sim.Second)
	if chk.err != nil {
		t.Fatal(chk.err)
	}
	if gov.Trips() == 0 {
		t.Fatal("full load never tripped: the test exercises nothing")
	}
	if gov.PeakC(hmp.Big) < 72 {
		t.Fatalf("big peak %.1f°C never entered the throttle zone", gov.PeakC(hmp.Big))
	}
	// After the trip the loop cycles: clamp → cool below release → caps step
	// back up → reheat. The ceiling guarantee and the cap moves' agreement
	// with temperature (checked every tick above) are what must hold
	// throughout; the cap itself oscillates by design.

	// Kill the load: the clusters cool below release_c and the governor
	// ratchets the ceilings back to the platform maximum.
	m.Kill(p)
	m.Run(60 * sim.Second)
	if chk.err != nil {
		t.Fatalf("ceiling violated during cooldown: %v", chk.err)
	}
	if gov.Releases() == 0 {
		t.Fatal("no release actuations after cooldown")
	}
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		if cap, max := m.LevelCap(k), plat.Clusters[k].MaxLevel(); cap != max {
			t.Fatalf("%s cap = %d after cooldown, want restored max %d", k, cap, max)
		}
	}

	if chk.lowered == 0 || chk.raised == 0 {
		t.Fatalf("checker saw %d cap lowerings and %d raisings, want both", chk.lowered, chk.raised)
	}
}

func TestGovernorHysteresisHolds(t *testing.T) {
	// A cluster sitting inside the hysteresis band (release < T < throttle)
	// must not see any cap movement.
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
	spec := thermal.Spec{Enabled: true, InitC: 65} // inside the default 60..67.5 band
	gov, err := thermal.NewGovernor(spec)
	if err != nil {
		t.Fatal(err)
	}
	m.AddDaemon(gov)
	// No load: idle power keeps the temperature from racing anywhere, and
	// the band is wide enough that 2 s of drift stays inside it.
	m.Run(2 * sim.Second)
	if gov.Throttles() != 0 || gov.Releases() != 0 {
		t.Fatalf("governor actuated (%d throttles, %d releases) inside the hysteresis band",
			gov.Throttles(), gov.Releases())
	}
}

func TestGovernorMinLevelFloor(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
	spec := thermal.Spec{Enabled: true, MinLevel: 2, ReleaseC: 70, ThrottleC: 72, TripC: 75}
	gov, err := thermal.NewGovernor(spec)
	if err != nil {
		t.Fatal(err)
	}
	m.AddDaemon(gov)
	m.Spawn("busy", &busy{threads: 8}, 10)
	m.Run(30 * sim.Second)
	if gov.Throttles() == 0 {
		t.Fatal("never throttled")
	}
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		if cap := m.LevelCap(k); cap < 2 {
			t.Fatalf("%s cap = %d, governor went below its min_level floor 2", k, cap)
		}
	}
}
