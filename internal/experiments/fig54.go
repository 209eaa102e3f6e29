package experiments

import (
	"fmt"

	"repro/internal/gts"
	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/mphars"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig54Cases are the six benchmark combinations of Figure 5.4.
var Fig54Cases = [][2]string{
	{"BO", "SW"}, // case 1
	{"BL", "SW"}, // case 2
	{"FL", "BL"}, // case 3
	{"BO", "FL"}, // case 4
	{"FL", "SW"}, // case 5
	{"BO", "BL"}, // case 6
}

// Fig54Versions are the four versions of Figure 5.4 in plot order.
var Fig54Versions = []string{"Baseline", "CONS-I", "MP-HARS-I", "MP-HARS-E"}

// MultiAppRun is one measured multi-application run.
type MultiAppRun struct {
	Case    [2]string
	Version string
	PerApp  [2]RunResult
	PowerW  float64
	Eff     float64 // geomean of per-app normalized perf, per watt
	Traces  [2][]mphars.TracePoint
}

// RunMultiApp runs one case under one version at the given target fraction.
// Targets are set per application from its solo maximum achievable rate.
func (e *Env) RunMultiApp(caseNames [2]string, version string, frac float64) MultiAppRun {
	var benches [2]workload.Benchmark
	var tgts [2]heartbeat.Target
	for i, s := range caseNames {
		b, ok := workload.ByShort(s)
		if !ok {
			panic(fmt.Sprintf("experiments: unknown benchmark %q", s))
		}
		benches[i] = b
		tgts[i] = e.Target(b, frac)
	}
	m := e.newMachine()
	var procs [2]*sim.Process
	spawn := func() {
		for i, b := range benches {
			procs[i] = m.Spawn(fmt.Sprintf("%s-%d", b.Name, i), b.New(e.Scale.Threads), e.Scale.HBWindow)
		}
	}
	run := MultiAppRun{Case: caseNames, Version: version}

	var traceFn func(i int) []mphars.TracePoint
	switch version {
	case "Baseline":
		m.SetPlacer(gts.New(e.Plat))
		spawn()
	case "CONS-I":
		c := mphars.NewConsI(m, mphars.ConsIConfig{})
		spawn()
		for i := range procs {
			c.Register(procs[i], tgts[i])
		}
		m.AddDaemon(c)
		traceFn = func(i int) []mphars.TracePoint { return c.Trace(procs[i]) }
	case "MP-HARS-I", "MP-HARS-E":
		v := mphars.MPHARSI
		if version == "MP-HARS-E" {
			v = mphars.MPHARSE
		}
		mgr := mphars.New(m, e.Model, mphars.Config{Version: v})
		m.AddDaemon(mgr)
		spawn()
		// Even initial partition: half of each cluster per application.
		for i := range procs {
			mgr.Register(m, procs[i], tgts[i],
				e.Plat.Clusters[hmp.Big].Cores/2, e.Plat.Clusters[hmp.Little].Cores/2)
		}
		traceFn = func(i int) []mphars.TracePoint { return mgr.Trace(procs[i]) }
	default:
		panic(fmt.Sprintf("experiments: unknown version %q", version))
	}

	m.RunUntil(e.Scale.MeasureFrom)
	e0, t0 := m.EnergyJ(), m.Now()
	m.RunUntil(e.Scale.RunTime)
	dt := sim.Seconds(m.Now() - t0)
	run.PowerW = (m.EnergyJ() - e0) / dt

	norms := make([]float64, 0, 2)
	for i := range procs {
		r := RunResult{
			Rate:   procs[i].HB.RateOver(t0, m.Now()),
			PowerW: run.PowerW,
		}
		r.NormPerf = heartbeat.NormalizedPerf(tgts[i], r.Rate)
		run.PerApp[i] = r
		// Guard the geomean: a zero norm (app never beat) floors at a tiny
		// positive value so one silent app doesn't erase the case.
		n := r.NormPerf
		if n <= 0 {
			n = 1e-3
		}
		norms = append(norms, n)
	}
	if run.PowerW > 0 {
		run.Eff = stats.GeoMean(norms) / run.PowerW
	}
	if traceFn != nil {
		for i := range procs {
			run.Traces[i] = traceFn(i)
		}
	}
	return run
}

// Fig54 regenerates Figure 5.4: per case and version, the case efficiency
// (geomean of the two applications' normalized performance, per watt)
// relative to the baseline version, plus the geometric mean over cases.
func Fig54(e *Env) *Report {
	nv := len(Fig54Versions)
	runs := make([]MultiAppRun, len(Fig54Cases)*nv)
	parallelFor(len(runs), func(i int) {
		runs[i] = e.RunMultiApp(Fig54Cases[i/nv], Fig54Versions[i%nv], 0.50)
	})
	rep := &Report{Title: "Figure 5.4: performance/watt, multi-application (50%±5% targets)"}
	labels := make([]string, len(Fig54Cases))
	for ci, c := range Fig54Cases {
		labels[ci] = fmt.Sprintf("%d:%s+%s", ci+1, c[0], c[1])
	}
	relativeTable(rep, "case", labels, Fig54Versions, func(c, v int) float64 { return runs[c*nv+v].Eff })
	rep.Notes = append(rep.Notes,
		"case efficiency = geomean of per-app normalized performance / average system power, relative to Baseline")
	return rep
}

// behaviourReport renders the Figures 5.5–5.7 behaviour graphs for case 4
// (BO + FL) under one version.
func behaviourReport(e *Env, version, figure string) *Report {
	run := e.RunMultiApp([2]string{"BO", "FL"}, version, 0.50)
	rep := &Report{Title: fmt.Sprintf("%s: behaviour graph of case 4 (BO+FL) under %s", figure, version)}
	rep.Table.Header = []string{"app", "beats", "rate", "norm perf", "target avg"}
	names := [2]string{"BO", "FL"}
	for i, name := range names {
		b, _ := workload.ByShort(name)
		tgt := e.Target(b, 0.50)
		rep.Table.AddRow(name,
			stats.F(float64(len(run.Traces[i])), 0),
			stats.F(run.PerApp[i].Rate, 2),
			stats.F(run.PerApp[i].NormPerf, 2),
			stats.F(tgt.Avg, 2))
		hps := &stats.Series{Name: "HPS"}
		bCore := &stats.Series{Name: "B_Core"}
		lCore := &stats.Series{Name: "L_Core"}
		bFreq := &stats.Series{Name: "B_Freq(GHz)"}
		lFreq := &stats.Series{Name: "L_Freq(GHz)"}
		maxLine := &stats.Series{Name: "Max"}
		minLine := &stats.Series{Name: "Min"}
		for _, tp := range run.Traces[i] {
			x := float64(tp.HBIndex)
			hps.Add(x, tp.HPS)
			bCore.Add(x, float64(tp.BigCores))
			lCore.Add(x, float64(tp.LittleCores))
			bFreq.Add(x, tp.BigGHz)
			lFreq.Add(x, tp.LittleGHz)
			maxLine.Add(x, tgt.Max)
			minLine.Add(x, tgt.Min)
		}
		rep.Series = append(rep.Series, hps, bCore, lCore, bFreq, lFreq, maxLine, minLine)
		rep.Charts = append(rep.Charts,
			stats.Chart(fmt.Sprintf("(%s) HPS vs target band", name),
				[]*stats.Series{hps, maxLine, minLine}, 60, 10),
			stats.Chart(fmt.Sprintf("(%s) cores and frequencies", name),
				[]*stats.Series{bCore, lCore, bFreq, lFreq}, 60, 10),
		)
	}
	return rep
}

// Fig55 regenerates Figure 5.5 (case 4 behaviour under CONS-I).
func Fig55(e *Env) *Report { return behaviourReport(e, "CONS-I", "Figure 5.5") }

// Fig56 regenerates Figure 5.6 (case 4 behaviour under MP-HARS-I).
func Fig56(e *Env) *Report { return behaviourReport(e, "MP-HARS-I", "Figure 5.6") }

// Fig57 regenerates Figure 5.7 (case 4 behaviour under MP-HARS-E).
func Fig57(e *Env) *Report { return behaviourReport(e, "MP-HARS-E", "Figure 5.7") }
