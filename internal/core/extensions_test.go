package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestKalmanConvergesToConstant(t *testing.T) {
	var k KalmanPredictor
	if k.Predict() != 0 {
		t.Error("unprimed prediction should be 0")
	}
	for i := 0; i < 200; i++ {
		k.Observe(7.0)
	}
	if math.Abs(k.Predict()-7.0) > 1e-6 {
		t.Fatalf("Kalman did not converge to constant: %v", k.Predict())
	}
}

// TestKalmanSmootherThanLastValueOnNoise compares the filter with the
// paper's default model, which predicts the last observation.
func TestKalmanSmootherThanLastValueOnNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var k KalmanPredictor
	truth := 5.0
	var kErr, lvErr, last float64
	for i := 0; i < 500; i++ {
		z := truth + rng.NormFloat64()*0.8
		if i > 0 {
			kErr += math.Abs(k.Predict() - truth)
			lvErr += math.Abs(last - truth)
		}
		k.Observe(z)
		last = z
	}
	if kErr >= lvErr {
		t.Fatalf("Kalman error %v should beat last-value error %v on stationary noise", kErr, lvErr)
	}
}

// TestKalmanTracksDrift feeds a 400-step ramp; at the filter's constants
// the estimate ends about 0.095 below the ramp's last value, its
// steady-state lag.
func TestKalmanTracksDrift(t *testing.T) {
	var k KalmanPredictor
	for i := 0; i < 400; i++ {
		k.Observe(1.0 + float64(i)*0.01)
	}
	want := 1.0 + 399*0.01
	if math.Abs(k.Predict()-want) > 0.25 {
		t.Fatalf("Kalman lost a slow ramp: predict %v, want ≈%v", k.Predict(), want)
	}
}

// TestRatioLearnerRecoversTrueRatio plants a ground-truth ratio and checks
// the learner recovers it from noise-free observations across states.
func TestRatioLearnerRecoversTrueRatio(t *testing.T) {
	plat := hmp.Default()
	for _, trueR := range []float64{1.0, 1.5, 2.0} {
		rl := NewRatioLearner(plat, 8)
		// Observations generated by the completion-time model at the true
		// ratio, with assignments the runtime would have applied under its
		// (possibly wrong) prior of 1.5.
		states := []hmp.State{
			{BigCores: 4, LittleCores: 0, BigLevel: 4, LittleLevel: 0},
			{BigCores: 0, LittleCores: 4, BigLevel: 0, LittleLevel: 3},
			{BigCores: 2, LittleCores: 2, BigLevel: 6, LittleLevel: 1},
			{BigCores: 3, LittleCores: 4, BigLevel: 2, LittleLevel: 5},
			{BigCores: 1, LittleCores: 3, BigLevel: 8, LittleLevel: 0},
		}
		workloadPerBeat := 0.42
		for _, st := range states {
			asg := Assign(8, st.BigCores, st.LittleCores, 1.5)
			s := ratioSample{st: st, asg: asg}
			tp := rl.throughputAt(s, trueR)
			rl.Observe(st, asg, tp/workloadPerBeat)
		}
		if got := rl.Ratio(); math.Abs(got-trueR) > 0.051 {
			t.Errorf("true r=%v: learned %v", trueR, got)
		}
	}
}

func TestRatioLearnerIgnoresJunkAndNonDiverseSamples(t *testing.T) {
	plat := hmp.Default()
	rl := NewRatioLearner(plat, 8)
	if rl.Ratio() != plat.R0() {
		t.Fatal("prior should be the platform r0")
	}
	asg := Assign(8, 2, 2, 1.5)
	rl.Observe(hmp.State{BigCores: 2, LittleCores: 2}, asg, -1)
	rl.Observe(hmp.State{BigCores: 2, LittleCores: 2}, asg, math.Inf(1))
	rl.Observe(hmp.State{BigCores: 2, LittleCores: 2}, asg, math.NaN())
	rl.Observe(hmp.State{BigCores: 2, LittleCores: 2}, Assignment{}, 2.0)
	if rl.Samples() != 0 {
		t.Error("junk observations must be dropped")
	}
	// Identical placements carry no ratio information: prior must survive.
	st := hmp.State{BigCores: 2, LittleCores: 2, BigLevel: 3, LittleLevel: 3}
	for i := 0; i < 10; i++ {
		rl.Observe(st, asg, 1.7)
	}
	if rl.Ratio() != plat.R0() {
		t.Errorf("non-diverse samples changed the ratio to %v", rl.Ratio())
	}
}

func TestRatioLearnerWindowBounded(t *testing.T) {
	plat := hmp.Default()
	rl := NewRatioLearner(plat, 8)
	rl.Window = 5
	for i := 0; i < 20; i++ {
		st := hmp.State{BigCores: i % 5, LittleCores: 4, BigLevel: i % 9}
		rl.Observe(st, Assign(8, st.BigCores, st.LittleCores, 1.5), 1.0+float64(i%3))
	}
	if rl.Samples() > 5 {
		t.Fatalf("window not enforced: %d samples", rl.Samples())
	}
}

func TestTabuList(t *testing.T) {
	tl := NewTabuList(2)
	a := hmp.State{BigCores: 1}
	b := hmp.State{BigCores: 2}
	c := hmp.State{BigCores: 3}
	tl.Add(a)
	tl.Add(b)
	if !tl.Contains(a) || !tl.Contains(b) {
		t.Fatal("membership wrong")
	}
	tl.Add(a) // duplicate: no-op
	if tl.Len() != 2 {
		t.Fatalf("len = %d, want 2", tl.Len())
	}
	tl.Add(c) // evicts a
	if tl.Contains(a) || !tl.Contains(c) {
		t.Fatal("eviction wrong")
	}
	if NewTabuList(0).cap != 1 {
		t.Error("capacity floor wrong")
	}
}

func TestTabuSearchEscapesParking(t *testing.T) {
	p := hmp.Default()
	e := testEstimators(p, 8)
	tgt := heartbeat.Target{Min: 1.8, Avg: 2.0, Max: 2.2}
	prm := SearchParams{M: 1, N: 1, D: 1}
	tabu := NewTabuSearch(6)

	// Drive repeated searches from whatever state each one returns; with
	// the plain incremental search a local optimum means visiting the same
	// state forever. Tabu must keep exploring fresh states.
	cs := hmp.State{BigCores: 2, LittleCores: 2, BigLevel: 4, LittleLevel: 3}
	seen := map[hmp.State]bool{}
	rate := 2.0
	for i := 0; i < 8; i++ {
		res := tabu(e, cs, rate, tgt, prm, Unbounded(p))
		seen[res.State] = true
		cs = res.State
	}
	if len(seen) < 4 {
		t.Fatalf("tabu search revisited states: only %d distinct of 8 moves", len(seen))
	}
}

func TestTabuSearchRespectsBoundsAndDistance(t *testing.T) {
	p := hmp.Default()
	e := testEstimators(p, 8)
	tgt := heartbeat.Target{Min: 1.8, Avg: 2.0, Max: 2.2}
	tabu := NewTabuSearch(4)
	cs := hmp.State{BigCores: 2, LittleCores: 2, BigLevel: 4, LittleLevel: 3}
	b := Bounds{MaxBigCores: 2, MaxLittleCores: 4, BigFreq: FreqFixed}
	for i := 0; i < 5; i++ {
		res := tabu(e, cs, 2.0, tgt, SearchParams{M: 4, N: 4, D: 7}, b)
		if res.State.BigCores > 2 {
			t.Fatalf("bound violated: %+v", res.State)
		}
		if res.State.BigLevel != cs.BigLevel {
			t.Fatalf("FreqFixed violated: %+v", res.State)
		}
		if hmp.Distance(res.State, cs) > 7 {
			t.Fatalf("distance violated: %+v", res.State)
		}
		cs = res.State
	}
}

func TestThreadClustersHierarchy(t *testing.T) {
	// A 3-stage pipeline [2, 4, 2] with 4 big slots: proportional quota is
	// 1, 2, 1.
	plan := ThreadClustersHierarchy([]int{2, 4, 2}, 4)
	if len(plan) != 8 {
		t.Fatalf("plan len = %d", len(plan))
	}
	counts := []int{0, 0, 0}
	idx := 0
	for g, n := range []int{2, 4, 2} {
		for i := 0; i < n; i++ {
			if plan[idx] {
				counts[g]++
			}
			idx++
		}
	}
	if counts[0] != 1 || counts[1] != 2 || counts[2] != 1 {
		t.Fatalf("per-group big counts = %v, want [1 2 1]", counts)
	}
}

func TestThreadClustersHierarchyRemainders(t *testing.T) {
	// 3 big slots over groups [1, 1, 1, 1]: three groups get one each.
	plan := ThreadClustersHierarchy([]int{1, 1, 1, 1}, 3)
	big := 0
	for _, b := range plan {
		if b {
			big++
		}
	}
	if big != 3 {
		t.Fatalf("big slots = %d, want 3", big)
	}
	// TB exceeding T clamps.
	plan = ThreadClustersHierarchy([]int{2, 2}, 99)
	for _, b := range plan {
		if !b {
			t.Fatal("full quota should mark everything big")
		}
	}
	if ThreadClustersHierarchy(nil, 3) != nil {
		t.Error("empty groups should give nil")
	}
}

func TestPlanThreadsFallsBackWithoutHierarchy(t *testing.T) {
	dp := &workload.DataParallel{AppName: "d", Threads: 8, BigFactor: 1.5, Unit: workload.ConstUnit(1)}
	plan := PlanThreads(dp, 8, 4, Hierarchy)
	want := ThreadClusters(8, 4, Interleaved)
	for i := range want {
		if plan[i] != want[i] {
			t.Fatalf("fallback plan %v, want interleaved %v", plan, want)
		}
	}
	// With hierarchy info, stage proportions are honoured.
	fe, _ := workload.ByShort("FE")
	pl := fe.New(2).(*workload.Pipeline) // stages [1,2,2,2,2,1], T=10
	plan = PlanThreads(pl, pl.NumThreads(), 5, Hierarchy)
	if len(plan) != pl.NumThreads() {
		t.Fatalf("plan len = %d", len(plan))
	}
	big := 0
	for _, b := range plan {
		if b {
			big++
		}
	}
	if big != 5 {
		t.Fatalf("plan big count = %d, want 5", big)
	}
}

func TestManagerWithExtensionsReachesTarget(t *testing.T) {
	plat := hmp.Default()
	gt := power.DefaultGroundTruth(plat)
	maxRate, _ := measureBaseline(t, gt)
	tgt := heartbeat.TargetAround(maxRate, 0.5, 0.05)

	m := sim.New(plat, sim.Config{Power: gt})
	p := m.Spawn("steady", newWorkload(8), 10)
	mgr := NewManager(m, p, testSet(plat), tgt, Config{
		Version:    HARSE,
		Predictor:  &KalmanPredictor{},
		LearnRatio: true,
		SearchFn:   NewTabuSearch(8),
	})
	m.AddDaemon(mgr)
	m.Run(120 * sim.Second)
	rate := p.HB.RateOver(60*sim.Second, m.Now())
	if rate < tgt.Min*0.7 {
		t.Fatalf("extended manager rate %v far below target %v", rate, tgt.Min)
	}
	if mgr.LearnedRatio() <= 0 {
		t.Error("ratio learning enabled but no estimate")
	}
	// The steady workload's true ratio is 1.5; the learner must not drift
	// absurdly far.
	if r := mgr.LearnedRatio(); r < 0.8 || r > 2.5 {
		t.Errorf("learned ratio %v implausible", r)
	}
}

func TestManagerLearnsBlackscholesRatio(t *testing.T) {
	// The paper's future-work claim: with online ratio learning HARS should
	// discover blackscholes' r ≈ 1.0 instead of assuming 1.5.
	plat := hmp.Default()
	gt := power.DefaultGroundTruth(plat)
	bl := &workload.DataParallel{
		AppName: "bl", Threads: 8, BigFactor: 1.0,
		Unit: workload.ConstUnit(0.40),
	}
	// Calibrate solo max.
	cm := sim.New(plat, sim.Config{Power: gt})
	cp := cm.Spawn("bl", &workload.DataParallel{AppName: "bl", Threads: 8, BigFactor: 1.0, Unit: workload.ConstUnit(0.40)}, 10)
	cm.Run(30 * sim.Second)
	maxRate := cp.HB.RateOver(5*sim.Second, cm.Now())
	tgt := heartbeat.TargetAround(maxRate, 0.5, 0.05)

	m := sim.New(plat, sim.Config{Power: gt})
	p := m.Spawn("bl", bl, 10)
	mgr := NewManager(m, p, testSet(plat), tgt, Config{Version: HARSE, LearnRatio: true})
	m.AddDaemon(mgr)
	m.Run(180 * sim.Second)
	r := mgr.LearnedRatio()
	// The learner cannot reach exactly 1.0: Table 3.1 assumes perfectly
	// divisible thread shares, while the machine quantizes (6 threads on 4
	// cores run 2,2,1,1), which biases the fit upward. What matters is the
	// clear pull away from the wrong prior of 1.5 toward the truth.
	if r > 1.42 {
		t.Fatalf("learned ratio %v, want pulled toward 1.0 for an r=1.0 workload", r)
	}
}
