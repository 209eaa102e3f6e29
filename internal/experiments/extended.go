package experiments

import "repro/internal/workload"

// ExtendedSuite runs the three headline versions (Baseline, HARS-E,
// HARS-EI) over the full ten-benchmark catalog — the paper's six plus the
// extended models. This is *not* a paper figure; it checks that HARS's
// improvements generalize beyond the evaluated set (memory-bound canneal,
// the dedup and x264 pipelines, streamcluster's phase jumps).
func ExtendedSuite(e *Env) *Report {
	versions := []string{"Baseline", "HARS-E", "HARS-EI"}
	benches := workload.AllExtended()
	grid := e.runGrid(benches, versions, 0.50)
	rep := &Report{Title: "Extended suite (beyond the paper): perf/watt at the 50%±5% target"}
	labels := make([]string, len(benches))
	for i, b := range benches {
		labels[i] = b.Short
	}
	relativeTable(rep, "bench", labels, versions, func(r, v int) float64 { return grid[r][v].PP })
	rep.Notes = append(rep.Notes,
		"benchmarks beyond the paper's six: CA=canneal, DE=dedup, SC=streamcluster, X2=x264")
	return rep
}
