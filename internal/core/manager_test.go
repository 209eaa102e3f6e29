package core

import (
	"testing"

	"repro/internal/gts"
	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

func newWorkload(threads int) *workload.DataParallel {
	return &workload.DataParallel{
		AppName:   "steady",
		Threads:   threads,
		BigFactor: 1.5,
		Unit:      workload.ConstUnit(0.5),
	}
}

// measureBaseline runs the workload under GTS at the max state and returns
// its heartbeat rate and average power (the calibration run).
func measureBaseline(t *testing.T, gt *power.GroundTruth) (rate, watts float64) {
	t.Helper()
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{Power: gt})
	m.SetPlacer(gts.New(plat))
	p := m.Spawn("steady", newWorkload(8), 10)
	m.Run(30 * sim.Second)
	return p.HB.RateOver(5*sim.Second, m.Now()), m.AvgPowerW()
}

func TestManagerReachesTargetAndSavesPower(t *testing.T) {
	plat := hmp.Default()
	gt := power.DefaultGroundTruth(plat)
	maxRate, basePower := measureBaseline(t, gt)
	if maxRate <= 0 {
		t.Fatal("baseline produced no heartbeats")
	}
	tgt := heartbeat.TargetAround(maxRate, 0.5, 0.05)

	for _, v := range []Version{HARSI, HARSE, HARSEI} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			m := sim.New(plat, sim.Config{Power: gt})
			p := m.Spawn("steady", newWorkload(8), 10)
			mgr := NewManager(m, p, testSet(plat), tgt, Config{Version: v})
			m.AddDaemon(mgr)
			m.Run(120 * sim.Second)

			// The settled rate must track the target band (generous slack
			// for discretization: one DVFS step moves the rate ~8%).
			rate := p.HB.RateOver(60*sim.Second, m.Now())
			if rate < tgt.Min*0.8 {
				t.Errorf("settled rate %v far below target min %v", rate, tgt.Min)
			}
			if rate > tgt.Max*1.35 {
				t.Errorf("settled rate %v far above target max %v", rate, tgt.Max)
			}
			// Running at ~half speed must use much less power than baseline.
			if pw := m.AvgPowerW(); pw >= basePower*0.85 {
				t.Errorf("power %v W not clearly below baseline %v W", pw, basePower)
			}
			if mgr.Searches() == 0 {
				t.Error("manager never searched despite overperforming start")
			}
			if len(mgr.Decisions()) != mgr.Searches() {
				t.Error("decision trace length mismatch")
			}
			if mgr.State().TotalCores() < 1 {
				t.Error("manager settled on empty state")
			}
		})
	}
}

func TestManagerChargesOverhead(t *testing.T) {
	plat := hmp.Default()
	gt := power.DefaultGroundTruth(plat)
	maxRate, _ := measureBaseline(t, gt)
	tgt := heartbeat.TargetAround(maxRate, 0.5, 0.05)

	m := sim.New(plat, sim.Config{Power: gt})
	p := m.Spawn("steady", newWorkload(8), 10)
	mgr := NewManager(m, p, testSet(plat), tgt, Config{Version: HARSEI})
	m.AddDaemon(mgr)
	m.Run(30 * sim.Second)
	if m.Overhead() == 0 {
		t.Fatal("manager charged no overhead")
	}
	if u := m.OverheadUtil(); u <= 0 || u > 0.2 {
		t.Fatalf("overhead utilization = %v, want small but positive", u)
	}
}

func TestManagerObservesDecisions(t *testing.T) {
	plat := hmp.Default()
	gt := power.DefaultGroundTruth(plat)
	maxRate, _ := measureBaseline(t, gt)
	tgt := heartbeat.TargetAround(maxRate, 0.5, 0.05)

	m := sim.New(plat, sim.Config{Power: gt})
	p := m.Spawn("steady", newWorkload(8), 10)
	var seen int
	mgr := NewManager(m, p, testSet(plat), tgt, Config{Version: HARSE})
	mgr.OnDecision = func(d Decision) {
		seen++
		if d.Time < 0 || d.To.TotalCores() < 1 {
			t.Errorf("bad decision %+v", d)
		}
	}
	m.AddDaemon(mgr)
	m.Run(60 * sim.Second)
	if seen == 0 {
		t.Fatal("OnDecision never fired")
	}
	if seen != len(mgr.Decisions()) {
		t.Errorf("OnDecision count %d != decisions %d", seen, len(mgr.Decisions()))
	}
}

func TestManagerInitStateOverride(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	p := m.Spawn("steady", newWorkload(8), 10)
	init := hmp.State{BigCores: 1, LittleCores: 1, BigLevel: 0, LittleLevel: 0}
	mgr := NewManager(m, p, testSet(plat), heartbeat.Target{Min: 1, Avg: 2, Max: 3},
		Config{Version: HARSE, InitState: &init})
	if mgr.State() != init {
		t.Fatalf("State = %+v, want init override", mgr.State())
	}
	if m.Level(hmp.Big) != 0 || m.Level(hmp.Little) != 0 {
		t.Error("init state DVFS not applied")
	}
	if mgr.Target() != (heartbeat.Target{Min: 1, Avg: 2, Max: 3}) {
		t.Error("Target accessor wrong")
	}
}

func TestVersionString(t *testing.T) {
	if HARSI.String() != "HARS-I" || HARSE.String() != "HARS-E" || HARSEI.String() != "HARS-EI" {
		t.Error("version strings wrong")
	}
	if Version(9).String() != "HARS-?" {
		t.Error("unknown version string wrong")
	}
}

func TestConfigParams(t *testing.T) {
	c := Config{Version: HARSI}
	if p := c.params(true); p != (SearchParams{M: 1, N: 0, D: 1}) {
		t.Errorf("HARS-I overperf params = %+v", p)
	}
	if p := c.params(false); p != (SearchParams{M: 0, N: 1, D: 1}) {
		t.Errorf("HARS-I underperf params = %+v", p)
	}
	c = Config{Version: HARSE}
	if p := c.params(true); p != (SearchParams{M: 4, N: 4, D: 7}) {
		t.Errorf("HARS-E params = %+v", p)
	}
	c = Config{Version: HARSEI, Params: SearchParams{M: 4, N: 4, D: 3}}
	if p := c.params(false); p.D != 3 {
		t.Errorf("override params = %+v", p)
	}
	if c.scheduler() != Interleaved {
		t.Error("HARS-EI must default to the interleaving scheduler")
	}
	chunk := Chunk
	c.Scheduler = &chunk
	if c.scheduler() != Chunk {
		t.Error("scheduler override ignored")
	}
	if (Config{Version: HARSE}).scheduler() != Chunk {
		t.Error("HARS-E must default to the chunk scheduler")
	}
}

// TestReconcileReappliesWhenAllocatedCoreDies pins the hotplug reaction
// path: when the specific core the schedule is affine to goes offline while
// enough sibling cores stay online (so the state's *counts* remain legal),
// the manager must still re-apply onto surviving cores instead of leaving
// the threads stranded on a dead affinity mask.
func TestReconcileReappliesWhenAllocatedCoreDies(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	b, _ := workload.ByShort("SW")
	p := m.Spawn("sw", b.New(2), 10)
	init := hmp.State{BigCores: 1, LittleCores: 0,
		BigLevel: plat.Clusters[hmp.Big].MaxLevel(), LittleLevel: 0}
	mgr := NewManager(m, p, testSet(plat), heartbeat.Target{Min: 1, Avg: 2, Max: 3},
		Config{Version: HARSE, InitState: &init})
	m.AddDaemon(mgr)
	m.Run(100 * sim.Millisecond)
	first := plat.FirstCPU(hmp.Big)
	for _, th := range p.Threads {
		if c := th.Core(); c != first {
			t.Fatalf("thread %d on core %d, want %d (B1 allocation)", th.Local, c, first)
		}
	}
	work := p.WorkDone()
	m.SetCoreOnline(first, false) // the one allocated big core dies
	m.Run(200 * sim.Millisecond)
	for _, th := range p.Threads {
		c := th.Core()
		if c < 0 || !m.CoreOnline(c) {
			t.Fatalf("thread %d stranded on core %d after hotplug", th.Local, c)
		}
	}
	if p.WorkDone() == work {
		t.Fatal("application made no progress after its allocated core died")
	}
	if st := mgr.State(); st.BigCores != 1 {
		t.Fatalf("state = %v, want B1 preserved (3 big cores still online)", st)
	}
}

// TestBoundsClamp pins the one state clamp the managers and the scenario
// engine share: MachineBounds caps both core counts (hotplug) and levels
// (DVFS ceilings), a state already inside is returned unchanged, and
// Unbounded's zero level caps leave levels alone.
func TestBoundsClamp(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	m.SetCoreOnline(plat.FirstCPU(hmp.Big)+plat.Clusters[hmp.Big].Cores-1, false)
	m.SetLevelCap(hmp.Big, 3)
	m.SetLevelCap(hmp.Little, 2)
	maxSt := hmp.MaxState(plat)
	want := hmp.State{
		BigCores: plat.Clusters[hmp.Big].Cores - 1, LittleCores: plat.Clusters[hmp.Little].Cores,
		BigLevel: 3, LittleLevel: 2,
	}
	if got := MachineBounds(m).Clamp(maxSt); got != want {
		t.Fatalf("MachineBounds clamp of %v = %v, want %v", maxSt, got, want)
	}
	inside := hmp.State{BigCores: 1, LittleCores: 2, BigLevel: 1, LittleLevel: 0}
	if got := MachineBounds(m).Clamp(inside); got != inside {
		t.Fatalf("clamp of in-bounds %v = %v, want it unchanged", inside, got)
	}
	over := hmp.State{BigCores: 9, LittleCores: 9, BigLevel: 99, LittleLevel: 99}
	want = hmp.State{
		BigCores: plat.Clusters[hmp.Big].Cores, LittleCores: plat.Clusters[hmp.Little].Cores,
		BigLevel: 99, LittleLevel: 99,
	}
	if got := Unbounded(plat).Clamp(over); got != want {
		t.Fatalf("Unbounded clamp of %v = %v, want %v (core counts capped, levels untouched)", over, got, want)
	}
}
