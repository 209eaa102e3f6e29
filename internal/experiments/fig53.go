package experiments

import (
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig53Distances is the d sweep of Figure 5.3 (1 to 9, step 2).
var Fig53Distances = []int{1, 3, 5, 7, 9}

// Fig53Point is one point of Figure 5.3: the geometric-mean efficiency
// (normalized to d = 1) and the mean runtime-manager CPU utilization over
// all benchmarks at one distance bound.
type Fig53Point struct {
	D          int
	PP         float64 // geometric mean of perf/watt over benchmarks (absolute)
	RelPP      float64 // PP normalized to the d = 1 point
	CPUUtilPct float64 // mean manager CPU utilization (%)
	TargetFrac float64
}

// RunFig53 sweeps the explored-space bound d for the HARS-EI version
// (m = n = 4) at one target fraction.
func RunFig53(e *Env, targetFrac float64) []Fig53Point {
	benches := workload.All()
	type job struct{ di, bi int }
	var jobs []job
	for di := range Fig53Distances {
		for bi := range benches {
			jobs = append(jobs, job{di, bi})
		}
	}
	results := make([]RunResult, len(jobs))
	parallelFor(len(jobs), func(i int) {
		j := jobs[i]
		b := benches[j.bi]
		tgt := e.Target(b, targetFrac)
		results[i] = e.RunHARS(b, tgt, core.Config{
			Version: core.HARSEI,
			Params:  core.SearchParams{M: 4, N: 4, D: Fig53Distances[j.di]},
		})
	})
	points := make([]Fig53Point, len(Fig53Distances))
	for di, d := range Fig53Distances {
		var pps, utils []float64
		for i, j := range jobs {
			if j.di != di {
				continue
			}
			pps = append(pps, results[i].PP)
			utils = append(utils, results[i].OverheadUtil*100)
		}
		points[di] = Fig53Point{
			D:          d,
			PP:         stats.GeoMean(pps),
			CPUUtilPct: stats.Mean(utils),
			TargetFrac: targetFrac,
		}
	}
	base := points[0].PP
	for i := range points {
		if base > 0 {
			points[i].RelPP = points[i].PP / base
		}
	}
	return points
}

// Fig53 regenerates Figure 5.3: (a) normalized perf/watt and (b) manager CPU
// utilization versus the explored-space distance d, for both the default and
// the high performance target.
func Fig53(e *Env) *Report {
	def := RunFig53(e, 0.50)
	high := RunFig53(e, 0.75)
	rep := &Report{Title: "Figure 5.3: efficiency and overhead vs explored space size (HARS-EI, m=n=4)"}
	rep.Table.Header = []string{"d", "perf/watt (default)", "perf/watt (high)", "CPU util % (default)", "CPU util % (high)"}
	ppDef := &stats.Series{Name: "pp-default"}
	ppHigh := &stats.Series{Name: "pp-high"}
	utDef := &stats.Series{Name: "util-default"}
	utHigh := &stats.Series{Name: "util-high"}
	for i := range def {
		rep.Table.AddRow(
			stats.F(float64(def[i].D), 0),
			stats.F(def[i].RelPP, 3),
			stats.F(high[i].RelPP, 3),
			stats.F(def[i].CPUUtilPct, 2),
			stats.F(high[i].CPUUtilPct, 2),
		)
		ppDef.Add(float64(def[i].D), def[i].RelPP)
		ppHigh.Add(float64(high[i].D), high[i].RelPP)
		utDef.Add(float64(def[i].D), def[i].CPUUtilPct)
		utHigh.Add(float64(high[i].D), high[i].CPUUtilPct)
	}
	rep.Series = []*stats.Series{ppDef, ppHigh, utDef, utHigh}
	rep.Charts = []string{
		stats.Chart("(a) normalized perf/watt vs d", []*stats.Series{ppDef, ppHigh}, 48, 10),
		stats.Chart("(b) manager CPU utilization (%) vs d", []*stats.Series{utDef, utHigh}, 48, 10),
	}
	rep.Notes = append(rep.Notes,
		"perf/watt normalized to d=1 within each target; geometric mean over the six benchmarks")
	return rep
}
