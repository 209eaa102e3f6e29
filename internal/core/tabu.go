package core

import (
	"math"

	"repro/internal/heartbeat"
	"repro/internal/hmp"
)

// This file implements the paper's fourth Discussion item (§3.1.4): an
// alternative search algorithm (Tabu search, Glover & Laguna [3]) that can
// escape the local optima the plain incremental search gets stuck in. As
// the paper predicts, it helps applications with stable workloads (the
// search keeps probing new states instead of parking) but can hurt highly
// variable ones.

// SearchFunc is the signature shared by the paper's GetNextSysState and its
// alternatives; the runtime manager accepts any implementation.
type SearchFunc func(e Estimators, cs hmp.State, curRate float64, tgt heartbeat.Target, prm SearchParams, b Bounds) SearchResult

// TabuList is a fixed-capacity FIFO memory of recently visited states.
type TabuList struct {
	cap   int
	items []hmp.State
}

// NewTabuList creates a list remembering the last n states (n ≥ 1).
func NewTabuList(n int) *TabuList {
	if n < 1 {
		n = 1
	}
	return &TabuList{cap: n}
}

// Contains reports whether the state is tabu.
func (tl *TabuList) Contains(st hmp.State) bool {
	for _, s := range tl.items {
		if s == st {
			return true
		}
	}
	return false
}

// Add records a visited state, evicting the oldest beyond capacity.
func (tl *TabuList) Add(st hmp.State) {
	if tl.Contains(st) {
		return
	}
	tl.items = append(tl.items, st)
	if len(tl.items) > tl.cap {
		tl.items = tl.items[len(tl.items)-tl.cap:]
	}
}

// Len returns the number of remembered states.
func (tl *TabuList) Len() int { return len(tl.items) }

// NewTabuSearch returns a SearchFunc implementing Tabu search over the
// same bounded neighbourhood as Algorithm 2: the best non-tabu candidate is
// chosen even when it is worse than the current state (the uphill moves
// that escape local optima), and every chosen state becomes tabu for the
// next `memory` adaptations. An aspiration rule admits tabu states that
// beat everything seen so far.
func NewTabuSearch(memory int) SearchFunc {
	tl := NewTabuList(memory)
	var bestEver float64 = math.Inf(-1) // best pp seen across adaptations
	return func(e Estimators, cs hmp.State, curRate float64, tgt heartbeat.Target, prm SearchParams, b Bounds) SearchResult {
		curTput := e.Perf.evalCachedPtr(cs).Throughput
		best := SearchResult{Rate: math.Inf(-1), PP: math.Inf(-1)}
		haveBest := false
		explored := 0
		for cand := range neighbourhood(e.Perf.Plat, cs, prm, b) {
			explored++
			cr := scoreResult(e, curTput, curRate, cand, tgt)
			// Tabu states are skipped unless they beat the best efficiency
			// ever seen (aspiration).
			if cand != cs && tl.Contains(cand) && cr.PP <= bestEver {
				continue
			}
			if !haveBest || better(cr, best, tgt) {
				best = cr
				haveBest = true
			}
		}
		if !haveBest {
			// Everything (except cs) was tabu and nothing aspirated: stay.
			best = scoreResult(e, curTput, curRate, cs, tgt)
		}
		best.Explored = explored
		tl.Add(cs) // leaving cs makes it tabu: the escape mechanism
		if best.PP > bestEver {
			bestEver = best.PP
		}
		return best
	}
}
