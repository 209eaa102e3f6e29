package core

import (
	"math"
	"testing"

	"repro/internal/hmp"
)

// evalBits is a PerfEval with every float replaced by its bit pattern, so
// == compares two evaluations bit for bit (−0 ≠ +0, NaN = NaN).
type evalBits struct {
	Assignment
	f [6]uint64
}

func bitsOf(ev PerfEval) evalBits {
	b := evalBits{Assignment: ev.Assignment}
	for i, x := range []float64{ev.TB, ev.TL, ev.TF, ev.Throughput, ev.UB, ev.UL} {
		b.f[i] = math.Float64bits(x)
	}
	return b
}

// TestSharedTableMatchesEvaluate: two estimators an EstimatorSet hands out
// for one thread count share one memo table, one of them with R0 set as
// the ratio learner sets it (Config.LearnRatio). Interleaving their cached
// reads over every state of a board — each read revalidates the table for
// the other's ratio — must give each the result of a fresh Evaluate, bit
// for bit, on the default board and on a 2 big + 6 little board.
func TestSharedTableMatchesEvaluate(t *testing.T) {
	heavy := hmp.Default()
	heavy.Clusters[hmp.Big].Cores = 2
	heavy.Clusters[hmp.Little].Cores = 6
	for _, board := range []struct {
		name string
		plat *hmp.Platform
	}{{"default", hmp.Default()}, {"2 big + 6 little", heavy}} {
		plat := board.plat
		set := testSet(plat)
		fixed, learned := set.For(8), set.For(8)
		if fixed.Perf.memo != learned.Perf.memo || set.Tables() != 1 {
			t.Fatalf("%v: two estimators of one thread count do not share one table (%d tables)", board.name, set.Tables())
		}
		learned.Perf.R0 = 1.37
		for _, st := range hmp.AllStates(plat, 1) {
			// Each estimator reads the state twice: the first read follows
			// the other's read under its own ratio, the second hits the
			// entry the first wrote.
			for _, e := range []*PerfEstimator{fixed.Perf, learned.Perf} {
				fresh := &PerfEstimator{Plat: plat, T: e.T, R0: e.R0}
				want := bitsOf(fresh.Evaluate(st))
				for read := 0; read < 2; read++ {
					if got := bitsOf(e.EvaluateCached(st)); got != want {
						t.Fatalf("%v R0=%v state %v read %d: cached %+v, fresh %+v", board.name, e.R0, st, read, got, want)
					}
				}
			}
		}
		if set.Tables() != 1 {
			t.Errorf("%v: %d tables after the sweep, want 1", board.name, set.Tables())
		}
	}
}

// TestEstimatorSetOneTablePerThreadCount: a set builds one table per
// distinct thread count, and a table's estimators evaluate for their own
// thread count.
func TestEstimatorSetOneTablePerThreadCount(t *testing.T) {
	plat := hmp.Default()
	set := testSet(plat)
	a, b, c := set.For(8), set.For(34), set.For(8)
	if set.Tables() != 2 || a.Perf.memo != c.Perf.memo || a.Perf.memo == b.Perf.memo {
		t.Fatalf("tables = %d, want 2: one per thread count", set.Tables())
	}
	if a.Power != b.Power {
		t.Error("estimators of one set should share the board's power estimator")
	}
	st := hmp.MaxState(plat)
	for _, e := range []Estimators{a, b, c, a} {
		fresh := &PerfEstimator{Plat: plat, T: e.Perf.T}
		if got, want := bitsOf(e.Perf.EvaluateCached(st)), bitsOf(fresh.Evaluate(st)); got != want {
			t.Fatalf("T=%d: cached %+v, fresh %+v", e.Perf.T, got, want)
		}
	}
}
