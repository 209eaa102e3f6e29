package core

import (
	"math"
	"testing"

	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/power"
)

// testModel builds a deterministic linear power model that scales with
// frequency, good enough for search behaviour tests without profiling.
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
			lm.R2[k][lv] = 1
		}
	}
	return lm
}

func testEstimators(p *hmp.Platform, threads int) Estimators {
	return NewEstimators(p, threads, testModel(p))
}

// testSet builds an estimator set over testModel.
func testSet(p *hmp.Platform) *EstimatorSet { return NewEstimatorSet(p, testModel(p)) }

// estimateRate is the search's rate estimate for cand from the rate
// curRate observed in cur: the rate Estimators.ScoreEval scores with. The
// work per heartbeat stays what it was in the last period (the paper's
// workload model), so the rate scales with estimated throughput.
func estimateRate(e Estimators, cur hmp.State, curRate float64, cand hmp.State) float64 {
	rate, _, _ := e.ScoreEval(e.Perf.EvaluateCached(cur).Throughput, curRate, cand, heartbeat.Target{})
	return rate
}

func TestEstimateRateScalesWithFrequency(t *testing.T) {
	p := hmp.Default()
	e := testEstimators(p, 4)
	// 4 threads on 4 big cores: rate scales linearly with big frequency.
	cur := hmp.State{BigCores: 4, LittleCores: 0, BigLevel: 0, LittleLevel: 0}
	cand := cur.WithLevel(hmp.Big, 8) // 0.8 → 1.6 GHz
	got := estimateRate(e, cur, 2.0, cand)
	if math.Abs(got-4.0) > 1e-9 {
		t.Fatalf("estimated rate = %v, want 4.0 (2× frequency)", got)
	}
	// Identity: the current state estimates the observed rate.
	if got := estimateRate(e, cur, 2.0, cur); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("identity estimate = %v, want 2.0", got)
	}
}

func TestEstimateRateMoreCores(t *testing.T) {
	p := hmp.Default()
	e := testEstimators(p, 8)
	cur := hmp.State{BigCores: 2, LittleCores: 0, BigLevel: 4, LittleLevel: 0}
	cand := cur.WithCores(hmp.Big, 4)
	got := estimateRate(e, cur, 1.0, cand)
	if math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("doubling big cores with 8 threads: rate = %v, want 2.0", got)
	}
}

func TestPowerEstimatorUsesUsedCores(t *testing.T) {
	p := hmp.Default()
	e := testEstimators(p, 2)
	// 2 threads, 4+4 cores allocated: only 2 big cores are actually used
	// (Table 3.1), so power must be charged for 2, with the little cluster
	// unused and free.
	st := hmp.State{BigCores: 4, LittleCores: 4, BigLevel: 8, LittleLevel: 5}
	ev := e.Perf.Evaluate(st)
	if ev.CBU != 2 || ev.CLU != 0 {
		t.Fatalf("used cores = (%d, %d), want (2, 0)", ev.CBU, ev.CLU)
	}
	w := e.Power.estimateEval(st, &ev)
	lm := testModel(p)
	want := lm.Estimate(hmp.Big, 8, 2, 1.0)
	if math.Abs(w-want) > 1e-9 {
		t.Fatalf("power = %v, want %v", w, want)
	}
}

func TestSearchPrefersCheaperSatisfyingState(t *testing.T) {
	p := hmp.Default()
	e := testEstimators(p, 8)
	cs := hmp.MaxState(p)
	// Current rate 4.0 at max state; target 2.0±0.2: massive
	// overperformance. The exhaustive search should find a much cheaper
	// state that still satisfies t.min.
	tgt := heartbeat.Target{Min: 1.8, Avg: 2.0, Max: 2.2}
	res := Search(e, cs, 4.0, tgt, SearchParams{M: 4, N: 4, D: 7}, Unbounded(p))
	if res.Rate < tgt.Min {
		t.Fatalf("result rate %v misses target %v", res.Rate, tgt.Min)
	}
	if res.Power >= 7.0 {
		t.Fatalf("result power %v should be far below max-state power", res.Power)
	}
	if res.State == cs {
		t.Fatal("search should have moved off the max state")
	}
	if hmp.Distance(res.State, cs) > 7 {
		t.Fatalf("result state distance %d > d=7", hmp.Distance(res.State, cs))
	}
	if res.Explored == 0 {
		t.Fatal("no candidates explored")
	}
}

func TestSearchIncrementalOnlyStepsOne(t *testing.T) {
	p := hmp.Default()
	e := testEstimators(p, 8)
	cs := hmp.MaxState(p)
	tgt := heartbeat.Target{Min: 1.8, Avg: 2.0, Max: 2.2}
	// HARS-I overperforming: m=1, n=0, d=1.
	res := Search(e, cs, 4.0, tgt, SearchParams{M: 1, N: 0, D: 1}, Unbounded(p))
	if d := hmp.Distance(res.State, cs); d > 1 {
		t.Fatalf("HARS-I moved distance %d, want ≤ 1", d)
	}
	// The decrement-only sweep must not raise anything.
	if res.State.BigCores > cs.BigCores || res.State.BigLevel > cs.BigLevel {
		t.Fatal("m=1,n=0 must not increase any dimension")
	}
}

func TestSearchUnderperformanceRaises(t *testing.T) {
	p := hmp.Default()
	e := testEstimators(p, 8)
	cs := hmp.State{BigCores: 1, LittleCores: 0, BigLevel: 0, LittleLevel: 0}
	// Rate 0.5 at tiny state; target 2.0: underperforming. n-only sweep.
	tgt := heartbeat.Target{Min: 1.8, Avg: 2.0, Max: 2.2}
	res := Search(e, cs, 0.5, tgt, SearchParams{M: 0, N: 1, D: 1}, Unbounded(p))
	if res.Rate <= 0.5 {
		t.Fatalf("search should raise the estimated rate, got %v", res.Rate)
	}
	if res.State == cs {
		t.Fatal("search should have moved up")
	}
}

func TestSearchPicksBestUnsatisfiableRate(t *testing.T) {
	p := hmp.Default()
	e := testEstimators(p, 8)
	cs := hmp.State{BigCores: 3, LittleCores: 3, BigLevel: 4, LittleLevel: 3}
	// Target far above anything reachable: pick the max-rate state.
	tgt := heartbeat.Target{Min: 900, Avg: 1000, Max: 1100}
	res := Search(e, cs, 1.0, tgt, SearchParams{M: 4, N: 4, D: 7}, Unbounded(p))
	// Estimated best rate within d=7 of cs: strictly higher than current.
	if res.Rate <= 1.0 {
		t.Fatalf("expected rate-maximizing state, got rate %v", res.Rate)
	}
	if res.NormPerf >= 1 {
		t.Fatal("unsatisfiable target can't be met")
	}
}

func TestSearchRespectsBounds(t *testing.T) {
	p := hmp.Default()
	e := testEstimators(p, 8)
	cs := hmp.State{BigCores: 2, LittleCores: 2, BigLevel: 4, LittleLevel: 3}
	tgt := heartbeat.Target{Min: 1.8, Avg: 2.0, Max: 2.2}
	b := Bounds{
		MaxBigCores:    2, // no free big cores
		MaxLittleCores: 3,
		BigFreq:        FreqFixed,
		LittleFreq:     FreqIncOnly,
	}
	res := Search(e, cs, 1.0, tgt, SearchParams{M: 4, N: 4, D: 7}, b)
	if res.State.BigCores > 2 {
		t.Errorf("big cores %d exceed bound 2", res.State.BigCores)
	}
	if res.State.LittleCores > 3 {
		t.Errorf("little cores %d exceed bound 3", res.State.LittleCores)
	}
	if res.State.BigLevel != cs.BigLevel {
		t.Errorf("big level moved despite FreqFixed: %d", res.State.BigLevel)
	}
	if res.State.LittleLevel < cs.LittleLevel {
		t.Errorf("little level decreased despite FreqIncOnly: %d", res.State.LittleLevel)
	}
}

func TestSearchExploredGrowsWithD(t *testing.T) {
	p := hmp.Default()
	e := testEstimators(p, 8)
	cs := hmp.State{BigCores: 2, LittleCores: 2, BigLevel: 4, LittleLevel: 3}
	tgt := heartbeat.Target{Min: 1.8, Avg: 2.0, Max: 2.2}
	prev := 0
	for _, d := range []int{1, 3, 5, 7, 9} {
		res := Search(e, cs, 2.0, tgt, SearchParams{M: 4, N: 4, D: d}, Unbounded(p))
		if res.Explored <= prev {
			t.Fatalf("explored did not grow: d=%d explored=%d prev=%d", d, res.Explored, prev)
		}
		prev = res.Explored
	}
}

func TestSearchNeverReturnsZeroCores(t *testing.T) {
	p := hmp.Default()
	e := testEstimators(p, 8)
	cs := hmp.State{BigCores: 1, LittleCores: 0, BigLevel: 0, LittleLevel: 0}
	tgt := heartbeat.Target{Min: 0.001, Avg: 0.002, Max: 0.003}
	// Hugely overperforming: the search wants to shrink, but can never
	// reach zero total cores.
	res := Search(e, cs, 5.0, tgt, SearchParams{M: 4, N: 4, D: 7}, Unbounded(p))
	if res.State.TotalCores() < 1 {
		t.Fatalf("search returned empty state %+v", res.State)
	}
}
