package experiments

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/scenario"
)

// FleetSweep runs multi-node scheduling scenarios on the parallel
// experiments engine: placement policies × fleet sizes over heterogeneous
// node mixes (stock, little-heavy, and tiny boards), with a staggered
// arrival wave that overflows the smaller nodes — so admission queueing and
// saturation migration actually fire. The report records where apps landed,
// how long the queue got, how often the fleet moved an app, and the
// per-fleet HPS/energy rollup; the digests pin the multi-node reaction
// paths the way the scenario sweep pins the single-machine ones.
func FleetSweep(e *Env) *Report {
	rep := &Report{Title: "Fleet sweep: placement policies × node counts (admission, queueing, migration, rollups)"}
	rep.Table.Header = []string{
		"policy", "nodes", "admitted", "queued", "dropped", "moves",
		"beats", "energy (J)", "overhead", "digest",
	}

	mkNodes := func(n int) []scenario.NodeSpec {
		specs := []scenario.NodeSpec{
			{Name: "n0", Platform: board(1, 1)},
			{Name: "n1", Platform: board(2, 6)},
			{Name: "n2"},
		}
		return specs[:n]
	}
	// Five staggered arrivals over boards totalling at most 18 cores: the
	// tiny node saturates instantly and the 1-node fleet queues hard.
	apps := []scenario.AppSpec{
		{Name: "sw0", Bench: "SW", Threads: 4, InitBig: scenario.IntPtr(1), InitLittle: scenario.IntPtr(1),
			Target: &scenario.TargetSpec{Min: 40, Avg: 50, Max: 60}},
		{Name: "fe0", Bench: "FE", Threads: 4, StartMS: 500, InitBig: scenario.IntPtr(1), InitLittle: scenario.IntPtr(1),
			Target: &scenario.TargetSpec{Min: 40, Avg: 50, Max: 60}},
		{Name: "bo0", Bench: "BO", Threads: 4, StartMS: 1000, StopMS: 6000, InitBig: scenario.IntPtr(1), InitLittle: scenario.IntPtr(1),
			Target: &scenario.TargetSpec{Min: 40, Avg: 50, Max: 60}},
		{Name: "fl0", Bench: "FL", Threads: 4, StartMS: 1500, InitBig: scenario.IntPtr(1), InitLittle: scenario.IntPtr(1),
			Target: &scenario.TargetSpec{Min: 40, Avg: 50, Max: 60}},
		{Name: "fa0", Bench: "FA", Threads: 4, StartMS: 2000, InitBig: scenario.IntPtr(1), InitLittle: scenario.IntPtr(1),
			Target: &scenario.TargetSpec{Min: 40, Avg: 50, Max: 60}},
	}

	type row struct {
		policy string
		nNodes int
		res    *scenario.Result
		err    error
	}
	var rows []row
	for _, policy := range fleet.PolicyNames() {
		for _, n := range []int{1, 2, 3} {
			rows = append(rows, row{policy: policy, nNodes: n})
		}
	}
	parallelFor(len(rows), func(i int) {
		r := &rows[i]
		sc := &scenario.Scenario{
			Name:       fmt.Sprintf("fleet-%s-%d", r.policy, r.nNodes),
			Manager:    scenario.ManagerMPHARSI,
			DurationMS: 10000,
			AdaptEvery: 2,
			Placement:  r.policy,
			Nodes:      mkNodes(r.nNodes),
			Apps:       apps,
		}
		r.res, r.err = scenario.Run(sc, scenario.Options{Strict: true})
	})
	for _, r := range rows {
		if r.err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s/%d nodes: %v", r.policy, r.nNodes, r.err))
			continue
		}
		beats := int64(0)
		admitted := 0
		for _, a := range r.res.Apps {
			beats += a.Beats
			if a.Arrived && !a.Skipped {
				admitted++
			}
		}
		rep.Table.AddRow(
			r.policy, fmt.Sprint(r.nNodes),
			fmt.Sprint(admitted),
			fmt.Sprint(r.res.QueuedArrivals),
			fmt.Sprint(r.res.DroppedArrivals),
			fmt.Sprint(r.res.NodeMigrations),
			fmt.Sprint(beats),
			fmt.Sprintf("%.1f", r.res.EnergyJ),
			fmt.Sprintf("%d µs", r.res.OverheadUS),
			fmt.Sprintf("%016x", r.res.TraceDigest),
		)
	}
	rep.Notes = append(rep.Notes,
		"node mixes grow tiny (1+1) → little-heavy (2+6) → stock (4+4); unreachable targets keep every partition saturated",
		"queued counts arrivals that waited for a free partition; dropped ones never got in before the run ended",
		"digests are FNV-64a over the full node-tagged trace; identical runs ⇒ identical digests")
	return rep
}
