package mphars

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gts"
	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testModel builds a frequency-scaled linear power model without profiling.
func testModel(p *hmp.Platform) *power.LinearModel {
	lm := &power.LinearModel{}
	coeff := [hmp.NumClusters]float64{hmp.Little: 0.30, hmp.Big: 1.20}
	base := [hmp.NumClusters]float64{hmp.Little: 0.15, hmp.Big: 0.70}
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		n := p.Clusters[k].Levels()
		lm.Alpha[k] = make([]float64, n)
		lm.Beta[k] = make([]float64, n)
		lm.R2[k] = make([]float64, n)
		for lv := 0; lv < n; lv++ {
			s := p.FreqScale(k, lv)
			lm.Alpha[k][lv] = coeff[k] * s * s
			lm.Beta[k][lv] = base[k] * s
		}
	}
	return lm
}

// testSet builds an estimator set over testModel.
func testSet(p *hmp.Platform) *core.EstimatorSet {
	return core.NewEstimatorSet(p, testModel(p))
}

func steady(name string, unit float64) *workload.DataParallel {
	return &workload.DataParallel{
		AppName: name, Threads: 8, BigFactor: 1.5,
		Unit: workload.ConstUnit(unit),
	}
}

// soloMaxRate measures an app's rate alone under GTS at the max state.
func soloMaxRate(t *testing.T, prog sim.Program) float64 {
	t.Helper()
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	m.SetPlacer(gts.New(plat))
	p := m.Spawn(prog.Name(), prog, 10)
	m.Run(25 * sim.Second)
	return p.HB.RateOver(5*sim.Second, m.Now())
}

func TestRegisterAndInitialPartition(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	mgr := New(m, testSet(plat), Config{Version: MPHARSE})
	m.AddDaemon(mgr)
	p1 := m.Spawn("a", steady("a", 0.5), 10)
	p2 := m.Spawn("b", steady("b", 0.5), 10)
	mgr.Register(m, p1, heartbeat.Target{Min: 1, Avg: 2, Max: 3}, 2, 2)
	mgr.Register(m, p2, heartbeat.Target{Min: 1, Avg: 2, Max: 3}, 2, 2)
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	b1, l1 := mgr.Allocation(p1)
	b2, l2 := mgr.Allocation(p2)
	if b1 != 2 || l1 != 2 || b2 != 2 || l2 != 2 {
		t.Fatalf("allocations = (%d,%d) and (%d,%d), want (2,2) each", b1, l1, b2, l2)
	}
	if len(mgr.Apps()) != 2 {
		t.Error("Apps() wrong")
	}
}

func TestRegisterClampsToFreeCores(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	mgr := New(m, testSet(plat), Config{})
	p1 := m.Spawn("a", steady("a", 0.5), 10)
	p2 := m.Spawn("b", steady("b", 0.5), 10)
	mgr.Register(m, p1, heartbeat.Target{Min: 1, Avg: 2, Max: 3}, 4, 2)
	// Second app asks for more than remains: clamped to what is free.
	mgr.Register(m, p2, heartbeat.Target{Min: 1, Avg: 2, Max: 3}, 4, 4)
	b2, l2 := mgr.Allocation(p2)
	if b2 != 0 || l2 != 2 {
		t.Fatalf("second app got (%d,%d) cores, want clamp to (0,2)", b2, l2)
	}
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterPanicsWithNoCores(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	mgr := New(m, testSet(plat), Config{})
	p1 := m.Spawn("a", steady("a", 0.5), 10)
	mgr.Register(m, p1, heartbeat.Target{Min: 1, Avg: 2, Max: 3}, 4, 4)
	p2 := m.Spawn("b", steady("b", 0.5), 10)
	defer func() {
		if recover() == nil {
			t.Error("expected panic registering into empty pool")
		}
	}()
	mgr.Register(m, p2, heartbeat.Target{Min: 1, Avg: 2, Max: 3}, 1, 1)
}

func TestTwoAppsAdaptWithoutSharingCores(t *testing.T) {
	plat := hmp.Default()
	gt := power.DefaultGroundTruth(plat)
	progA := steady("a", 0.5)
	progB := steady("b", 0.8)
	rateA := soloMaxRate(t, steady("a", 0.5))
	rateB := soloMaxRate(t, steady("b", 0.8))

	m := sim.New(plat, sim.Config{Power: gt})
	mgr := New(m, testSet(plat), Config{Version: MPHARSE})
	m.AddDaemon(mgr)
	pA := m.Spawn("a", progA, 10)
	pB := m.Spawn("b", progB, 10)
	// Asymmetric targets so both apps start outside their bands: a (2,2)
	// allocation at max frequency sits almost exactly at 50% of the solo
	// maximum, which would otherwise need no adaptation at all.
	tgtA := heartbeat.TargetAround(rateA, 0.40, 0.05)
	tgtB := heartbeat.TargetAround(rateB, 0.62, 0.05)
	mgr.Register(m, pA, tgtA, 2, 2)
	mgr.Register(m, pB, tgtB, 2, 2)

	for i := 0; i < 120; i++ {
		m.Run(1 * sim.Second)
		if err := mgr.CheckInvariants(); err != nil {
			t.Fatalf("invariant broken at %d s: %v", i, err)
		}
	}
	// Both applications should be near their bands (generous slack: shared
	// frequency and discrete cores limit precision).
	gotA := pA.HB.RateOver(60*sim.Second, m.Now())
	gotB := pB.HB.RateOver(60*sim.Second, m.Now())
	if gotA < tgtA.Min*0.65 {
		t.Errorf("app a rate %v far below target %v", gotA, tgtA.Min)
	}
	if gotB < tgtB.Min*0.65 {
		t.Errorf("app b rate %v far below target %v", gotB, tgtB.Min)
	}
	if mgr.Searches() == 0 {
		t.Error("no searches happened")
	}
	// Traces must exist for behaviour graphs.
	if len(mgr.Trace(pA)) == 0 || len(mgr.Trace(pB)) == 0 {
		t.Error("traces missing")
	}
	if mgr.Trace(pA)[0].HBIndex != 0 {
		t.Error("trace should start at heartbeat 0")
	}
}

func TestFreezeProtocolOnFrequencyDecrease(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	mgr := New(m, testSet(plat), Config{Version: MPHARSE})
	m.AddDaemon(mgr)
	pA := m.Spawn("a", steady("a", 0.5), 10)
	pB := m.Spawn("b", steady("b", 0.5), 10)
	// Very low targets: both apps overperform massively and should drive
	// shared frequencies down, installing freezing counts.
	lowTgt := heartbeat.Target{Min: 0.05, Avg: 0.1, Max: 0.15}
	mgr.Register(m, pA, lowTgt, 2, 2)
	mgr.Register(m, pB, lowTgt, 2, 2)
	sawFrozen := false
	for i := 0; i < 60 && !sawFrozen; i++ {
		m.Run(1 * sim.Second)
		sawFrozen = mgr.Frozen(hmp.Big) || mgr.Frozen(hmp.Little)
	}
	if !sawFrozen {
		t.Fatal("no cluster ever froze despite repeated frequency decreases")
	}
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocationReusesCores(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	mgr := New(m, testSet(plat), Config{})
	p := m.Spawn("a", steady("a", 0.5), 10)
	n := mgr.Register(m, p, heartbeat.Target{Min: 1, Avg: 2, Max: 3}, 3, 0)
	if n.nprocsB != 3 {
		t.Fatalf("nprocsB = %d", n.nprocsB)
	}
	// Shrink to 1: must free 2, keep 1 of the originally used cores.
	n.decBigCoreCnt = 2
	n.nprocsB = 1
	big, little := mgr.allocateCores(n)
	if len(big) != 1 || len(little) != 0 {
		t.Fatalf("allocation = %v / %v", big, little)
	}
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Grow back to 2: must reuse the kept core plus one free one.
	kept := big[0]
	n.nprocsB = 2
	big, _ = mgr.allocateCores(n)
	if len(big) != 2 {
		t.Fatalf("regrow allocation = %v", big)
	}
	found := false
	for _, c := range big {
		if c == kept {
			found = true
		}
	}
	if !found {
		t.Errorf("regrow did not reuse kept core %d: %v", kept, big)
	}
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterReusesEstimators: an app whose thread count the board's
// estimator set has already seen registers without building a fresh
// estimator memo table (about 113 KB on the default board), so a warm
// Register + Unregister cycle — an arrival and departure, or a
// migration's restore and move away — allocates only its per-app
// bookkeeping. The set belongs to the board, not the manager: a second
// manager on another machine with the same board builds no table at its
// first registration either.
func TestRegisterReusesEstimators(t *testing.T) {
	plat := hmp.Default()
	set := testSet(plat)
	m := sim.New(plat, sim.Config{})
	mgr := New(m, set, Config{})
	p := m.Spawn("a", steady("a", 0.5), 10)
	tgt := heartbeat.Target{Min: 1, Avg: 2, Max: 3}
	mgr.Register(m, p, tgt, 2, 2)
	mgr.Unregister(m, p)

	const cycles = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		mgr.Register(m, p, tgt, 2, 2)
		mgr.Unregister(m, p)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / cycles; per >= 4096 {
		t.Fatalf("warm Register + Unregister allocates %d B per cycle, want < 4096", per)
	}

	m2 := sim.New(plat, sim.Config{})
	mgr2 := New(m2, set, Config{})
	p2 := m2.Spawn("b", steady("b", 0.5), 10)
	runtime.ReadMemStats(&before)
	mgr2.Register(m2, p2, tgt, 2, 2)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4096 || set.Tables() != 1 {
		t.Fatalf("first Register on a second manager of the board allocates %d B and leaves %d tables, want < 4096 B and 1", got, set.Tables())
	}
}

func TestAppsCannotStealCores(t *testing.T) {
	plat := hmp.Default()
	gt := power.DefaultGroundTruth(plat)
	m := sim.New(plat, sim.Config{Power: gt})
	mgr := New(m, testSet(plat), Config{Version: MPHARSE})
	m.AddDaemon(mgr)
	pA := m.Spawn("a", steady("a", 0.5), 10)
	pB := m.Spawn("b", steady("b", 0.5), 10)
	// App a wants the moon (unreachable target), app b is content.
	mgr.Register(m, pA, heartbeat.Target{Min: 100, Avg: 200, Max: 300}, 2, 2)
	mgr.Register(m, pB, heartbeat.Target{Min: 0.1, Avg: 0.5, Max: 100}, 2, 2)
	m.Run(60 * sim.Second)
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	bB, lB := mgr.Allocation(pB)
	if bB+lB == 0 {
		t.Fatal("app b lost all its cores to app a")
	}
	// App a may only have grown into cores b freed voluntarily; totals add up.
	bA, lA := mgr.Allocation(pA)
	if bA+bB > 4 || lA+lB > 4 {
		t.Fatalf("over-allocation: big %d+%d little %d+%d", bA, bB, lA, lB)
	}
}

func TestVersionString(t *testing.T) {
	if MPHARSI.String() != "MP-HARS-I" || MPHARSE.String() != "MP-HARS-E" {
		t.Error("version strings wrong")
	}
	if Version(9).String() != "MP-HARS-?" {
		t.Error("unknown version string wrong")
	}
}

func TestParams(t *testing.T) {
	if p := (Config{Version: MPHARSI}).params(); p != (core.SearchParams{M: 1, N: 1, D: 1}) {
		t.Errorf("MP-HARS-I params = %+v", p)
	}
	if p := (Config{Version: MPHARSE}).params(); p != (core.SearchParams{M: 4, N: 4, D: 7}) {
		t.Errorf("MP-HARS-E params = %+v", p)
	}
}

func TestTraceAndAllocationOfUnknownProc(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	mgr := New(m, testSet(plat), Config{})
	ghost := m.Spawn("ghost", steady("ghost", 0.5), 10)
	if mgr.Trace(ghost) != nil {
		t.Error("trace of unregistered proc should be nil")
	}
	if b, l := mgr.Allocation(ghost); b != 0 || l != 0 {
		t.Error("allocation of unregistered proc should be zero")
	}
}
