package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig51Versions are the five versions of Figures 5.1 and 5.2 in plot order.
var Fig51Versions = []string{"Baseline", "SO", "HARS-I", "HARS-E", "HARS-EI"}

// SingleAppOptions parameterize the single-application comparison.
type SingleAppOptions struct {
	// TargetFrac is the fraction of the maximum achievable performance the
	// target is set to: 0.50 for Figure 5.1, 0.75 for Figure 5.2.
	TargetFrac float64
	// Benchmarks filters by short tag; empty means all six.
	Benchmarks []string
}

func (o SingleAppOptions) benches() []workload.Benchmark {
	if len(o.Benchmarks) == 0 {
		return workload.All()
	}
	var out []workload.Benchmark
	for _, s := range o.Benchmarks {
		if b, ok := workload.ByShort(s); ok {
			out = append(out, b)
		}
	}
	return out
}

// SingleAppResult holds one benchmark's five-version measurements.
type SingleAppResult struct {
	Bench   workload.Benchmark
	Results map[string]RunResult // keyed by version name
}

// RunSingleApp measures all five versions for the selected benchmarks at
// the given target fraction: the engine behind Figures 5.1 and 5.2.
func RunSingleApp(e *Env, o SingleAppOptions) []SingleAppResult {
	benches := o.benches()
	grid := e.runGrid(benches, Fig51Versions, o.TargetFrac)
	out := make([]SingleAppResult, len(benches))
	for i, b := range benches {
		out[i] = SingleAppResult{Bench: b, Results: map[string]RunResult{}}
		for vi, v := range Fig51Versions {
			out[i].Results[v] = grid[i][vi]
		}
	}
	return out
}

// runGrid runs every version of every benchmark at frac of the
// benchmark's maximum rate, in parallel, and returns the results indexed
// [bench][version].
func (e *Env) runGrid(benches []workload.Benchmark, versions []string, frac float64) [][]RunResult {
	nv := len(versions)
	grid := make([][]RunResult, len(benches))
	for i := range grid {
		grid[i] = make([]RunResult, nv)
	}
	parallelFor(len(benches)*nv, func(i int) {
		b := benches[i/nv]
		tgt := e.Target(b, frac)
		r := &grid[i/nv][i%nv]
		switch versions[i%nv] {
		case "Baseline":
			*r = e.RunBaseline(b, tgt)
		case "SO":
			*r = e.RunStaticOptimal(b, tgt)
		case "HARS-I":
			*r = e.RunHARS(b, tgt, core.Config{Version: core.HARSI})
		case "HARS-E":
			*r = e.RunHARS(b, tgt, core.Config{Version: core.HARSE})
		case "HARS-EI":
			*r = e.RunHARS(b, tgt, core.Config{Version: core.HARSEI})
		}
	})
	return grid
}

// relativeTable fills rep's table: a head column of labels, then per
// version the row's value relative to its first version's (the Baseline's,
// 0 when that is not positive), then a GM row of each column's geometric
// mean.
func relativeTable(rep *Report, head string, labels, versions []string, val func(row, v int) float64) {
	rep.Table.Header = append([]string{head}, versions...)
	cols := make([][]float64, len(versions))
	for r, label := range labels {
		cells := []string{label}
		for v := range versions {
			rel := 0.0
			if base := val(r, 0); base > 0 {
				rel = val(r, v) / base
			}
			cols[v] = append(cols[v], rel)
			cells = append(cells, stats.F(rel, 2))
		}
		rep.Table.AddRow(cells...)
	}
	gm := []string{"GM"}
	for _, col := range cols {
		gm = append(gm, stats.F(stats.GeoMean(col), 2))
	}
	rep.Table.AddRow(gm...)
}

// Fig51 regenerates Figure 5.1 (performance/watt, default 50% target): per
// benchmark, each version's normalized performance per watt relative to the
// baseline version, plus the geometric mean.
func Fig51(e *Env) *Report {
	return singleAppReport(e, SingleAppOptions{TargetFrac: 0.50},
		"Figure 5.1: performance/watt, default performance target (50%±5%)")
}

// Fig52 regenerates Figure 5.2 (performance/watt, high 75% target).
func Fig52(e *Env) *Report {
	return singleAppReport(e, SingleAppOptions{TargetFrac: 0.75},
		"Figure 5.2: performance/watt, high performance target (75%±5%)")
}

func singleAppReport(e *Env, o SingleAppOptions, title string) *Report {
	rows := RunSingleApp(e, o)
	rep := &Report{Title: title}
	labels := make([]string, len(rows))
	for i, row := range rows {
		labels[i] = row.Bench.Short
	}
	relativeTable(rep, "bench", labels, Fig51Versions, func(r, v int) float64 {
		return rows[r].Results[Fig51Versions[v]].PP
	})
	rep.Notes = append(rep.Notes,
		"values are normalized performance/watt relative to the Baseline version (Baseline = 1.00)")
	for _, row := range rows {
		rep.Notes = append(rep.Notes, fmt.Sprintf("%s: target %.2f hb/s, SO state %s, HARS-EI settled %s",
			row.Bench.Short, e.Target(row.Bench, o.TargetFrac).Avg,
			row.Results["SO"].State.Pretty(e.Plat),
			row.Results["HARS-EI"].State.Pretty(e.Plat)))
	}
	return rep
}
