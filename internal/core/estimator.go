package core

import (
	"math"

	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/power"
)

// PerfEval is the performance estimator's evaluation of one system state.
type PerfEval struct {
	Assignment
	TB, TL     float64 // t_B and t_L (time to finish one unit of total work)
	TF         float64 // t_f = max(t_B, t_L)
	Throughput float64 // 1/t_f, in units of work per second (relative scale)
	UB, UL     float64 // estimated utilization of the used cores per cluster
}

// PerfEstimator is HARS's performance estimator (§3.1.1): performance is
// assumed proportional to core count and frequency level with the
// platform's nominal big/little ratio (r0 scaled by the cluster
// frequencies), and the thread assignment of Table 3.1 is assumed.
type PerfEstimator struct {
	Plat *hmp.Platform
	T    int // total threads of the target application

	// R0 overrides the platform's nominal big/little performance ratio
	// when positive. The online ratio learner (ratio.go) installs its
	// estimate here; zero keeps the paper's fixed r0.
	R0 float64

	// Dense memo table over the small 4-D state space (core counts ×
	// frequency levels), shared by Search, the tabu search, and MP-HARS's
	// per-application sweeps; on an MP-HARS node one table serves every
	// application of one thread count. Entries are validated against
	// memoEpoch, which bumps whenever the effective ratio or thread count
	// changes, so invalidation is O(1). Evaluate is a pure function of
	// (state, ratio, T): memoized results are bit-for-bit identical to
	// recomputed ones.
	memo          []PerfEval
	memoStamp     []uint32
	memoEpoch     uint32
	memoR0        float64 // effective ratio the current epoch is valid for
	memoT         int
	nCL, nFB, nFL int // index strides (little cores + 1, big levels, little levels)
	memoStates    int
	scratch       PerfEval // fallback slot for out-of-grid states
}

// Ratio returns the big/little performance ratio in effect.
func (e *PerfEstimator) Ratio() float64 {
	if e.R0 > 0 {
		return e.R0
	}
	return e.Plat.R0()
}

// initMemo sizes the memo table for the estimator's platform.
func (e *PerfEstimator) initMemo() {
	nCB := e.Plat.Clusters[hmp.Big].Cores + 1
	e.nCL = e.Plat.Clusters[hmp.Little].Cores + 1
	e.nFB = e.Plat.Clusters[hmp.Big].Levels()
	e.nFL = e.Plat.Clusters[hmp.Little].Levels()
	e.memoStates = nCB * e.nCL * e.nFB * e.nFL
	e.memo = make([]PerfEval, e.memoStates)
	e.memoStamp = make([]uint32, e.memoStates)
	e.memoEpoch = 1
	e.memoR0 = e.Ratio()
	e.memoT = e.T
}

// EvaluateCached is Evaluate through the estimator's memo table. Results are
// identical to Evaluate; states outside the platform grid fall through to a
// direct computation.
func (e *PerfEstimator) EvaluateCached(st hmp.State) PerfEval {
	return *e.evalCachedPtr(st)
}

// evalCachedPtr is EvaluateCached without the struct copy: the pointer is
// into the memo table (or a scratch slot for out-of-grid states) and is
// valid until the next out-of-grid evaluation or epoch change.
func (e *PerfEstimator) evalCachedPtr(st hmp.State) *PerfEval {
	if e.memo == nil {
		e.initMemo()
	}
	if r := e.Ratio(); r != e.memoR0 || e.T != e.memoT {
		e.memoEpoch++
		e.memoR0 = r
		e.memoT = e.T
	}
	if st.BigCores < 0 || st.LittleCores < 0 || st.LittleCores >= e.nCL ||
		st.BigLevel < 0 || st.BigLevel >= e.nFB ||
		st.LittleLevel < 0 || st.LittleLevel >= e.nFL {
		e.scratch = e.Evaluate(st)
		return &e.scratch
	}
	idx := ((st.BigCores*e.nCL+st.LittleCores)*e.nFB+st.BigLevel)*e.nFL + st.LittleLevel
	if idx >= e.memoStates {
		e.scratch = e.Evaluate(st)
		return &e.scratch
	}
	if e.memoStamp[idx] != e.memoEpoch {
		e.memo[idx] = e.Evaluate(st)
		e.memoStamp[idx] = e.memoEpoch
	}
	return &e.memo[idx]
}

// Evaluate computes the Table 3.1 assignment and timing for a state.
func (e *PerfEstimator) Evaluate(st hmp.State) PerfEval {
	lilIPC := e.Plat.Clusters[hmp.Little].IPC
	sb := e.Ratio() * lilIPC * e.Plat.FreqScale(hmp.Big, st.BigLevel)
	sl := lilIPC * e.Plat.FreqScale(hmp.Little, st.LittleLevel)
	r := sb / sl
	a := Assign(e.T, st.BigCores, st.LittleCores, r)
	tb, tl, tf := a.CompletionTime(e.T, sb, sl)
	ev := PerfEval{Assignment: a, TB: tb, TL: tl, TF: tf}
	if tf > 0 && !math.IsInf(tf, 1) {
		ev.Throughput = 1 / tf
		ev.UB = tb / tf
		ev.UL = tl / tf
	}
	return ev
}

// EstimateRate predicts the heartbeat rate in a candidate state given the
// observed rate in the current state, using the paper's simple workload
// model: the amount of work per heartbeat stays what it was in the last
// period, so the rate scales with estimated throughput.
func (e *PerfEstimator) EstimateRate(cur hmp.State, curRate float64, cand hmp.State) float64 {
	curEv := e.EvaluateCached(cur)
	candEv := e.EvaluateCached(cand)
	if curEv.Throughput <= 0 {
		return 0
	}
	return curRate * candEv.Throughput / curEv.Throughput
}

// PowerEstimator is HARS's power estimator (§3.1.2): the fitted per-cluster
// linear models applied to the estimated used cores and utilizations.
type PowerEstimator struct {
	Model *power.LinearModel
}

// Estimate returns the estimated watts for a state whose performance
// evaluation is ev.
func (pe *PowerEstimator) Estimate(st hmp.State, ev PerfEval) float64 {
	return pe.estimateEval(st, &ev)
}

// estimateEval is Estimate without the PerfEval copy (hot in the search
// sweeps); the two-cluster formula lives only here.
func (pe *PowerEstimator) estimateEval(st hmp.State, ev *PerfEval) float64 {
	return pe.Model.Estimate(hmp.Big, st.BigLevel, ev.CBU, ev.UB) +
		pe.Model.Estimate(hmp.Little, st.LittleLevel, ev.CLU, ev.UL)
}

// Estimators bundles the two estimators the runtime manager consults.
type Estimators struct {
	Perf  *PerfEstimator
	Power *PowerEstimator
}

// NewEstimators builds estimators for an application with T threads on the
// platform, using the fitted power model.
func NewEstimators(plat *hmp.Platform, threads int, model *power.LinearModel) Estimators {
	perf := &PerfEstimator{Plat: plat, T: threads}
	perf.initMemo() // preallocate so Search sweeps are allocation-free
	return Estimators{
		Perf:  perf,
		Power: &PowerEstimator{Model: model},
	}
}

// ScoreEval evaluates one candidate state against the current state's
// estimated throughput (curTput), which callers hoist out of their sweep:
// estimated rate, estimated power, and normalized performance per watt.
func (e Estimators) ScoreEval(curTput, curRate float64, cand hmp.State, tgt heartbeat.Target) (rate, watts, pp float64) {
	candEv := e.Perf.evalCachedPtr(cand)
	if curTput > 0 {
		rate = curRate * candEv.Throughput / curTput
	}
	watts = e.Power.estimateEval(cand, candEv)
	if watts <= 0 {
		watts = 1e-9
	}
	pp = heartbeat.NormalizedPerf(tgt, rate) / watts
	return rate, watts, pp
}
