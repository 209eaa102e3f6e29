package scenario

// runTables runs sc as Run does and returns how many Table 3.1 memo tables
// the run's estimator sets built, and the most it may build: its distinct
// boards times the distinct thread counts of the apps it admitted.
func runTables(sc *Scenario, opts Options) (built, bound int, err error) {
	e, err := run(sc, opts)
	if err != nil {
		return 0, 0, err
	}
	counts := make(map[int]bool)
	for _, a := range e.apps {
		if a.proc != nil {
			counts[len(a.proc.Threads)] = true
		}
	}
	for _, bm := range e.boards {
		built += bm.est.Tables()
	}
	return built, len(e.boards) * len(counts), nil
}
