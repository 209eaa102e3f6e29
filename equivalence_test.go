package repro

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gts"
	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

// These tests pin the incremental run-queue scheduler (per-core queues
// maintained on block/unblock/migrate transitions, O(1) RunQueueLen, the
// mask balancer's misplaced/hysteresis fast paths, and the power-integration
// memo) to the historical full-scan implementation: the golden digests below
// were captured from the pre-refactor simulator and every refactor since
// must reproduce them bit-for-bit — identical placements, heartbeats,
// work, migrations, busy time, and energy.

// digest summarizes a machine's end state exactly (energy as raw float bits).
type runDigest struct {
	energy   float64
	beats    []int64
	work     []float64
	mig      []int
	busy     sim.Time
	overhead sim.Time
	rq       int
}

func digestOf(m *sim.Machine) runDigest {
	d := runDigest{energy: m.EnergyJ(), overhead: m.Overhead()}
	for _, p := range m.Procs() {
		mig := 0
		for _, t := range p.Threads {
			mig += t.Migrations()
		}
		d.beats = append(d.beats, p.HB.Count())
		d.work = append(d.work, p.WorkDone())
		d.mig = append(d.mig, mig)
	}
	for cpu := 0; cpu < m.Platform().TotalCores(); cpu++ {
		d.busy += m.BusyTime(cpu)
		d.rq += m.RunQueueLen(cpu) * (cpu + 1)
	}
	return d
}

func checkDigest(t *testing.T, got runDigest, energy string, beats []int64, work []string, mig []int, busy, overhead sim.Time, rq int) {
	t.Helper()
	if s := floatHex(got.energy); s != energy {
		t.Errorf("energy = %s, want %s", s, energy)
	}
	for i := range beats {
		if got.beats[i] != beats[i] {
			t.Errorf("proc %d beats = %d, want %d", i, got.beats[i], beats[i])
		}
		if s := floatHex(got.work[i]); s != work[i] {
			t.Errorf("proc %d work = %s, want %s", i, s, work[i])
		}
		if got.mig[i] != mig[i] {
			t.Errorf("proc %d migrations = %d, want %d", i, got.mig[i], mig[i])
		}
	}
	if got.busy != busy {
		t.Errorf("busy = %d, want %d", got.busy, busy)
	}
	if got.overhead != overhead {
		t.Errorf("overhead = %d, want %d", got.overhead, overhead)
	}
	if got.rq != rq {
		t.Errorf("run-queue digest = %d, want %d", got.rq, rq)
	}
}

// floatHex renders a float64 exactly (%x is stable for finite values).
func floatHex(f float64) string { return fmt.Sprintf("%x", f) }

// rqChecker cross-checks the O(1) RunQueueLen counters against a brute-force
// rescan of every thread, every tick.
type rqChecker struct {
	t *testing.T
}

func (c *rqChecker) Tick(m *sim.Machine) {
	for cpu := 0; cpu < m.Platform().TotalCores(); cpu++ {
		want := 0
		for _, th := range m.Threads() {
			if th.Runnable() && th.Core() == cpu {
				want++
			}
		}
		if got := m.RunQueueLen(cpu); got != want {
			c.t.Fatalf("t=%d cpu=%d: RunQueueLen = %d, brute force = %d", m.Now(), cpu, got, want)
		}
	}
}

// TestEquivalenceSWMaskBalancer pins the data-parallel (SW) workload under
// the default mask balancer.
func TestEquivalenceSWMaskBalancer(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
	b, _ := workload.ByShort("SW")
	m.Spawn("sw", b.New(8), 10)
	m.AddDaemon(&rqChecker{t})
	m.Run(5 * sim.Second)
	checkDigest(t, digestOf(m),
		"0x1.0cf56d292c018p+05",
		[]int64{9}, []string{"0x1.0442a9930bd98p+06"}, []int{0},
		30502380, 0, 36)
}

// TestEquivalenceFEMaskBalancer pins the pipeline (FE) workload — heavy
// block/unblock churn and migrations — under the mask balancer.
func TestEquivalenceFEMaskBalancer(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
	b, _ := workload.ByShort("FE")
	m.Spawn("fe", b.New(8), 10)
	m.AddDaemon(&rqChecker{t})
	m.Run(5 * sim.Second)
	checkDigest(t, digestOf(m),
		"0x1.9ef9c1375a5cep+05",
		[]int64{82}, []string{"0x1.6b18bb52e034dp+06"}, []int{296},
		39411319, 0, 97)
}

// TestEquivalenceHARSE pins an adapting HARS-E manager run: affinity masks,
// DVFS transitions, overhead charging, and ten full search sweeps.
func TestEquivalenceHARSE(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
	b, _ := workload.ByShort("SW")
	p := m.Spawn("sw", b.New(8), 10)
	lm := power.SyntheticLinearModel(plat)
	tgt := heartbeat.Target{Min: 5.0, Avg: 6.0, Max: 7.0}
	mgr := core.NewManager(m, p, core.NewEstimatorSet(plat, lm), tgt, core.Config{Version: core.HARSE, OverheadCPU: 4, AdaptEvery: 2})
	m.AddDaemon(mgr)
	m.AddDaemon(&rqChecker{t})
	m.Run(12 * sim.Second)
	if got, want := mgr.State().String(), "B3@L7 L3@L5"; got != want {
		t.Errorf("settled state = %s, want %s", got, want)
	}
	if mgr.Searches() != 10 || mgr.ExploredTotal() != 4554 || len(mgr.Decisions()) != 10 {
		t.Errorf("searches/explored/decisions = %d/%d/%d, want 10/4554/10",
			mgr.Searches(), mgr.ExploredTotal(), len(mgr.Decisions()))
	}
	checkDigest(t, digestOf(m),
		"0x1.64130d879c9acp+06",
		[]int64{21}, []string{"0x1.36612fd32c78ap+07"}, []int{60},
		68034154, 712100, 35)
}

// TestEquivalenceGTS pins a two-application run under the GTS scheduler
// model (exercising the RanLastTick load tracking the stamp refactor kept).
func TestEquivalenceGTS(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{Power: power.DefaultGroundTruth(plat)})
	m.SetPlacer(gts.New(plat))
	bo, _ := workload.ByShort("BO")
	fe, _ := workload.ByShort("FE")
	m.Spawn("bo", bo.New(4), 10)
	m.Spawn("fe", fe.New(4), 10)
	m.AddDaemon(&rqChecker{t})
	m.Run(5 * sim.Second)
	checkDigest(t, digestOf(m),
		"0x1.a3a5f235a1e11p+05",
		[]int64{9, 59}, []string{"0x1.c83083c67d43cp+04", "0x1.fc83a184d8e24p+05"}, []int{55, 210},
		39002599, 0, 60)
}

// TestSearchZeroAllocs asserts that a warm GetNextSysState sweep allocates
// nothing: the PerfEval memo table is preallocated by NewEstimators and the
// sweep itself is closure-free.
func TestSearchZeroAllocs(t *testing.T) {
	est := bench.SearchEstimators()
	plat := est.Perf.Plat
	cs := hmp.State{BigCores: 2, LittleCores: 2, BigLevel: 4, LittleLevel: 3}
	tgt := heartbeat.Target{Min: 1.8, Avg: 2.0, Max: 2.2}
	prm := core.SearchParams{M: 4, N: 4, D: 7}
	b := core.Unbounded(plat)
	core.Search(est, cs, 3.0, tgt, prm, b) // warm the memo
	allocs := testing.AllocsPerRun(100, func() {
		if res := core.Search(est, cs, 3.0, tgt, prm, b); res.Explored == 0 {
			t.Fatal("no candidates")
		}
	})
	if allocs != 0 {
		t.Fatalf("core.Search allocates %.1f objects per sweep, want 0", allocs)
	}
}

// TestSearchMemoEquivalence checks that memoized evaluation is bit-for-bit
// the direct computation across the whole state space, and that changing the
// ratio invalidates the memo.
func TestSearchMemoEquivalence(t *testing.T) {
	est := bench.SearchEstimators()
	plat := est.Perf.Plat
	for _, r0 := range []float64{0, 1.37} {
		est.Perf.R0 = r0
		for _, st := range hmp.AllStates(plat, 1) {
			want := est.Perf.Evaluate(st)
			got := est.Perf.EvaluateCached(st)
			if got != want {
				t.Fatalf("R0=%v state %v: cached %+v != direct %+v", r0, st, got, want)
			}
			// Second read must hit the memo and stay identical.
			if got2 := est.Perf.EvaluateCached(st); got2 != want {
				t.Fatalf("R0=%v state %v: second cached read diverged", r0, st)
			}
		}
	}
}
