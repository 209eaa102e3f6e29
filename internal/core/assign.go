package core

import "math"

// Assignment is one row of the paper's Table 3.1: how many threads go to
// each cluster (T_B, T_L) and how many allocated cores each cluster actually
// uses (C_B,U, C_L,U — which can be smaller than the allocation).
type Assignment struct {
	TB, TL   int // threads assigned to the big / little cluster
	CBU, CLU int // cores actually used on each cluster
}

// Assign computes the thread assignment of Table 3.1: the split of T
// equally-loaded threads between CB big cores and CL little cores that
// minimizes the completion time, where one big core is r times as fast as
// one little core (r > 0; the r < 1 rows are the symmetric derivation the
// paper mentions).
func Assign(T, CB, CL int, r float64) Assignment {
	if T <= 0 || CB+CL <= 0 || CB < 0 || CL < 0 {
		return Assignment{}
	}
	if r < 1 {
		// The little cluster is the faster one: swap roles, assign with the
		// inverse ratio, and swap back.
		a := Assign(T, CL, CB, 1/r)
		return Assignment{TB: a.TL, TL: a.TB, CBU: a.CLU, CLU: a.CBU}
	}
	if CB == 0 {
		// Degenerate: only little cores are allocated.
		return Assignment{TL: T, CLU: min(T, CL)}
	}
	rCB := r * float64(CB)
	ft := float64(T)
	switch {
	case T <= CB:
		return Assignment{TB: T, CBU: T}
	case ft <= rCB:
		return Assignment{TB: T, CBU: CB}
	case ft <= rCB+float64(CL):
		tb := int(math.Floor(rCB))
		if tb > T {
			tb = T
		}
		tl := T - tb
		return Assignment{TB: tb, TL: tl, CBU: CB, CLU: tl}
	default:
		tb := int(math.Ceil(rCB / (rCB + float64(CL)) * ft))
		if tb > T {
			tb = T
		}
		tl := T - tb
		return Assignment{TB: tb, TL: tl, CBU: CB, CLU: min(tl, CL)}
	}
}

// CompletionTime returns the paper's t_B, t_L and t_f = max(t_B, t_L) for an
// assignment: the time for each cluster to finish its share of one unit of
// total work W = 1 split equally over T threads, given per-core speeds SB
// and SL.
func (a Assignment) CompletionTime(T int, SB, SL float64) (tB, tL, tF float64) {
	if T <= 0 {
		return 0, 0, math.Inf(1)
	}
	w := 1.0 / float64(T) // per-thread work
	if a.TB > 0 {
		if a.TB <= a.CBU {
			tB = w / SB
		} else {
			tB = float64(a.TB) * w / (float64(a.CBU) * SB)
		}
	}
	if a.TL > 0 {
		if a.TL <= a.CLU {
			tL = w / SL
		} else {
			tL = float64(a.TL) * w / (float64(a.CLU) * SL)
		}
	}
	tF = math.Max(tB, tL)
	if a.TB+a.TL == 0 || tF == 0 {
		return tB, tL, math.Inf(1)
	}
	return tB, tL, tF
}
