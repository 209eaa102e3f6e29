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

	// memo is the Table 3.1 memo table EvaluateCached reads through: one
	// an EstimatorSet shares among every estimator of its board and this
	// thread count, or the estimator's own, built on first use.
	memo *perfMemo
}

// perfMemo is a dense memo of Evaluate over one board's small 4-D state
// space (core counts × frequency levels), used by Search, the tabu search
// and MP-HARS's per-application sweeps. Entries are validated against
// epoch, which bumps whenever the reading estimator's effective ratio or
// thread count differs from the one the epoch is valid for, so
// invalidation is O(1) and estimators with different ratios (a HARS
// manager learning its ratio beside fixed-ratio ones) may share a table:
// they only cost each other recomputations. Evaluate is a pure function of
// (board, state, ratio, T), so memoized results are bit-for-bit identical
// to recomputed ones.
type perfMemo struct {
	evals         []PerfEval
	stamp         []uint32
	epoch         uint32
	r0            float64  // effective ratio the current epoch is valid for
	t             int      // thread count the current epoch is valid for
	nCL, nFB, nFL int      // index strides (little cores + 1, big levels, little levels)
	scratch       PerfEval // fallback slot for out-of-grid states
}

// newPerfMemo sizes a memo table for the board. Its epoch starts past
// every entry's zero stamp, so no entry is valid before it is computed.
func newPerfMemo(plat *hmp.Platform) *perfMemo {
	t := &perfMemo{
		epoch: 1,
		nCL:   plat.Clusters[hmp.Little].Cores + 1,
		nFB:   plat.Clusters[hmp.Big].Levels(),
		nFL:   plat.Clusters[hmp.Little].Levels(),
	}
	n := (plat.Clusters[hmp.Big].Cores + 1) * t.nCL * t.nFB * t.nFL
	t.evals = make([]PerfEval, n)
	t.stamp = make([]uint32, n)
	return t
}

// Ratio returns the big/little performance ratio in effect.
func (e *PerfEstimator) Ratio() float64 {
	if e.R0 > 0 {
		return e.R0
	}
	return e.Plat.R0()
}

// EvaluateCached is Evaluate through the estimator's memo table. Results are
// identical to Evaluate; states outside the platform grid fall through to a
// direct computation.
func (e *PerfEstimator) EvaluateCached(st hmp.State) PerfEval {
	return *e.evalCachedPtr(st)
}

// evalCachedPtr is EvaluateCached without the struct copy: the pointer is
// into the memo table (or its scratch slot for out-of-grid states) and is
// valid until the next evaluation through the table by any estimator
// sharing it.
func (e *PerfEstimator) evalCachedPtr(st hmp.State) *PerfEval {
	if e.memo == nil {
		e.memo = newPerfMemo(e.Plat)
	}
	t := e.memo
	if r := e.Ratio(); r != t.r0 || e.T != t.t {
		t.epoch++
		t.r0 = r
		t.t = e.T
	}
	if st.BigCores < 0 || st.LittleCores < 0 || st.LittleCores >= t.nCL ||
		st.BigLevel < 0 || st.BigLevel >= t.nFB ||
		st.LittleLevel < 0 || st.LittleLevel >= t.nFL {
		t.scratch = e.Evaluate(st)
		return &t.scratch
	}
	idx := ((st.BigCores*t.nCL+st.LittleCores)*t.nFB+st.BigLevel)*t.nFL + st.LittleLevel
	if idx >= len(t.evals) {
		t.scratch = e.Evaluate(st)
		return &t.scratch
	}
	if t.stamp[idx] != t.epoch {
		t.evals[idx] = e.Evaluate(st)
		t.stamp[idx] = t.epoch
	}
	return &t.evals[idx]
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

// PowerEstimator is HARS's power estimator (§3.1.2): the fitted per-cluster
// linear models applied to the estimated used cores and utilizations.
type PowerEstimator struct {
	Model *power.LinearModel
}

// estimateEval returns the estimated watts for a state whose performance
// evaluation is ev: the two-cluster formula, which lives only here.
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
// platform, using the fitted power model, over a memo table of their own.
func NewEstimators(plat *hmp.Platform, threads int, model *power.LinearModel) Estimators {
	return NewEstimatorSet(plat, model).For(threads)
}

// EstimatorSet is one board's estimators: the platform, its fitted power
// model, and one Table 3.1 memo table per application thread count, which
// every estimator the set hands out for that count shares. Sharing is
// exact (see perfMemo), so a runtime manager is built from its board's set
// rather than from a bare power model, and the managers of one board —
// every node carrying it in a scenario run, every registration of an
// MP-HARS manager — build each table once.
//
// A set is not safe for concurrent use. A scenario run shares one per
// board across its nodes, which it advances from one goroutine; callers
// that run machines concurrently build one set per run.
type EstimatorSet struct {
	plat   *hmp.Platform
	power  *PowerEstimator
	tables map[int]*perfMemo
}

// NewEstimatorSet returns an estimator set for the board plat and the
// power model fitted on it; it builds no table until asked for one.
func NewEstimatorSet(plat *hmp.Platform, model *power.LinearModel) *EstimatorSet {
	return &EstimatorSet{
		plat:   plat,
		power:  &PowerEstimator{Model: model},
		tables: make(map[int]*perfMemo),
	}
}

// For returns estimators for an application with the given thread count.
// The first call for a count builds (and preallocates, so the search
// sweeps are allocation-free) its memo table, and later calls share it.
// Each call returns its own PerfEstimator, so a manager that learns its
// ratio (Config.LearnRatio) sets R0 for itself only.
func (s *EstimatorSet) For(threads int) Estimators {
	t, ok := s.tables[threads]
	if !ok {
		t = newPerfMemo(s.plat)
		s.tables[threads] = t
	}
	return Estimators{
		Perf:  &PerfEstimator{Plat: s.plat, T: threads, memo: t},
		Power: s.power,
	}
}

// Tables returns how many memo tables the set has built: one per distinct
// thread count it was asked for.
func (s *EstimatorSet) Tables() int { return len(s.tables) }

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
