package core

import (
	"iter"
	"math"

	"repro/internal/heartbeat"
	"repro/internal/hmp"
)

// SearchParams are the three configurable parameters of the paper's search
// function (Algorithm 2): the sweep reaches from −M to +N around the current
// state in every dimension, bounded by Manhattan distance D.
type SearchParams struct {
	M, N, D int
}

// FreqConstraint restricts how a cluster's frequency may move during a
// search. Single-application HARS always uses FreqFree; MP-HARS's
// interference-aware adaptation (Table 4.3) narrows shared clusters.
type FreqConstraint int

// The frequency-direction constraints.
const (
	FreqFree    FreqConstraint = iota // any level within the sweep range
	FreqIncOnly                       // may only stay or increase
	FreqDecOnly                       // may only stay or decrease
	FreqFixed                         // must stay at the current level
)

// scoreResult builds the SearchResult for one candidate against the hoisted
// current-state throughput.
func scoreResult(e Estimators, curTput, curRate float64, cand hmp.State, tgt heartbeat.Target) SearchResult {
	rate, watts, pp := e.ScoreEval(curTput, curRate, cand, tgt)
	return SearchResult{
		State:    cand,
		Rate:     rate,
		NormPerf: heartbeat.NormalizedPerf(tgt, rate),
		Power:    watts,
		PP:       pp,
	}
}

// Bounds narrows the searchable space, the MP-HARS extension of the search
// function (freeCoreCnt and controllableCluster in Algorithm 3).
type Bounds struct {
	MaxBigCores    int // core-count cap (own cores + free cores)
	MaxLittleCores int
	BigFreq        FreqConstraint
	LittleFreq     FreqConstraint

	// BigLevelCap and LittleLevelCap bound the frequency sweep from above,
	// encoded as cap level + 1 so the zero value means "uncapped" (the
	// platform maximum). MachineBounds fills these from the machine's
	// active DVFS ceilings (thermal capping).
	BigLevelCap    int
	LittleLevelCap int
}

// Unbounded returns the single-application bounds: the whole platform.
func Unbounded(p *hmp.Platform) Bounds {
	return Bounds{
		MaxBigCores:    p.Clusters[hmp.Big].Cores,
		MaxLittleCores: p.Clusters[hmp.Little].Cores,
	}
}

// Clamp returns st with its core counts and DVFS levels brought inside the
// bounds. A zero level cap leaves that cluster's level alone.
func (b Bounds) Clamp(st hmp.State) hmp.State {
	st.BigCores = min(st.BigCores, b.MaxBigCores)
	st.LittleCores = min(st.LittleCores, b.MaxLittleCores)
	st.BigLevel = capLevel(st.BigLevel, b.BigLevelCap)
	st.LittleLevel = capLevel(st.LittleLevel, b.LittleLevelCap)
	return st
}

// capLevel applies an encoded level cap (cap level + 1, 0 = uncapped) to a
// level.
func capLevel(level, cap int) int {
	if cap > 0 && cap-1 < level {
		return cap - 1
	}
	return level
}

// SearchResult is the outcome of one GetNextSysState invocation.
type SearchResult struct {
	State    hmp.State
	Rate     float64 // estimated heartbeat rate in State
	NormPerf float64
	Power    float64 // estimated watts
	PP       float64 // normalized performance per watt
	Explored int     // candidate states evaluated (drives overhead accounting)
}

// Search is the paper's GetNextSysState (Algorithm 2). It sweeps the
// neighbourhood of current state cs (observed rate curRate), skipping
// candidates farther than prm.D in Manhattan distance, estimates each
// candidate's rate and power, and picks the best according to the paper's
// rule: a state satisfying the target minimum always beats one that does
// not; among satisfying states the highest normalized-performance-per-watt
// wins; among unsatisfying states the highest estimated rate wins. The
// current state competes on equal terms (getBetterState).
func Search(e Estimators, cs hmp.State, curRate float64, tgt heartbeat.Target, prm SearchParams, b Bounds) SearchResult {
	// Hoist the current state's evaluation out of the sweep: every
	// candidate's rate estimate divides by the same current throughput.
	curTput := e.Perf.evalCachedPtr(cs).Throughput
	best := SearchResult{Rate: math.Inf(-1), PP: math.Inf(-1)}
	explored := 0
	for cand := range neighbourhood(e.Perf.Plat, cs, prm, b) {
		explored++
		cr := scoreResult(e, curTput, curRate, cand, tgt)
		if better(cr, best, tgt) {
			best = cr
		}
	}
	// getBetterState: make sure the current state competes even when the
	// sweep bounds excluded it (possible under MP-HARS constraints).
	if cs.TotalCores() > 0 {
		// Re-checking cs is free: its metrics are already known, so it does
		// not count as an explored candidate.
		cr := scoreResult(e, curTput, curRate, cs, tgt)
		if better(cr, best, tgt) {
			best = cr
		}
	}
	best.Explored = explored
	return best
}

// neighbourhood yields Algorithm 2's candidates around cs in sweep order:
// every state that allocates a core, lies within the per-dimension sweep
// ranges (−M..+N, narrowed by the bounds), and is at most prm.D from cs in
// Manhattan distance. Search and the Tabu search walk it alike.
func neighbourhood(plat *hmp.Platform, cs hmp.State, prm SearchParams, b Bounds) iter.Seq[hmp.State] {
	return func(yield func(hmp.State) bool) {
		loB, hiB := sweepRange(cs.BigCores, prm, 0, b.MaxBigCores)
		loL, hiL := sweepRange(cs.LittleCores, prm, 0, b.MaxLittleCores)
		loFB, hiFB := freqRange(cs.BigLevel, prm, capLevel(plat.Clusters[hmp.Big].MaxLevel(), b.BigLevelCap), b.BigFreq)
		loFL, hiFL := freqRange(cs.LittleLevel, prm, capLevel(plat.Clusters[hmp.Little].MaxLevel(), b.LittleLevelCap), b.LittleFreq)
		for i := loB; i <= hiB; i++ {
			for j := loL; j <= hiL; j++ {
				if i+j == 0 {
					continue
				}
				for k := loFB; k <= hiFB; k++ {
					for l := loFL; l <= hiFL; l++ {
						cand := hmp.State{BigCores: i, LittleCores: j, BigLevel: k, LittleLevel: l}
						if hmp.Distance(cand, cs) <= prm.D && !yield(cand) {
							return
						}
					}
				}
			}
		}
	}
}

// better implements the selection rule of Algorithm 2 lines 13–22.
func better(cand, best SearchResult, tgt heartbeat.Target) bool {
	candOK := cand.Rate >= tgt.Min
	bestOK := best.Rate >= tgt.Min
	switch {
	case candOK && bestOK:
		return cand.PP > best.PP
	case candOK && !bestOK:
		return true
	case !candOK && bestOK:
		return false
	default:
		return cand.Rate > best.Rate
	}
}

func sweepRange(cur int, prm SearchParams, lo, hi int) (int, int) {
	a, b := cur-prm.M, cur+prm.N
	if a < lo {
		a = lo
	}
	if b > hi {
		b = hi
	}
	if b < a {
		b = a
	}
	return a, b
}

func freqRange(cur int, prm SearchParams, maxLevel int, fc FreqConstraint) (int, int) {
	lo, hi := cur-prm.M, cur+prm.N
	switch fc {
	case FreqIncOnly:
		lo = cur
	case FreqDecOnly:
		hi = cur
	case FreqFixed:
		lo, hi = cur, cur
	}
	if lo < 0 {
		lo = 0
	}
	if hi > maxLevel {
		hi = maxLevel
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}
