package experiments

import (
	"fmt"
	"sort"

	"repro/internal/fleet"
	"repro/internal/scenario"
)

// DecisionsSweep ranks the placement policies by realized regret: each
// policy runs a contended heterogeneous fleet with decision tracing on, the
// first few contested decisions (two or more eligible candidates) are
// forked through the counterfactual engine, and every top-k alternative is
// forced in a full replay. A policy's realized regret is the total
// improvement the best alternatives would have delivered — how many SLO
// misses and how much energy it left on the table at the decisions it
// actually faced. Rows are sorted best-first (lowest regret), making the
// table a direct policy ranking on the decisions that mattered.
func DecisionsSweep(e *Env) *Report {
	rep := &Report{Title: "Decision sweep: counterfactual regret ranking of placement policies"}
	rep.Table.Header = []string{
		"policy", "decisions", "gated", "no-cand", "mean margin",
		"forked", "replays", "regret miss", "regret (J)", "digest",
	}

	slo := &scenario.SLOSpec{TargetHPS: 3, SlackMS: 150}
	mkScenario := func(policy string) *scenario.Scenario {
		return &scenario.Scenario{
			Name:       fmt.Sprintf("decisions-%s", policy),
			Manager:    scenario.ManagerMPHARSI,
			DurationMS: 8000,
			AdaptEvery: 2,
			Placement:  policy,
			// A tiny third board keeps the fleet contended: whatever lands
			// there saturates it, so admissions are real choices and the
			// migrate pass (and its score gate) fires.
			Nodes: []scenario.NodeSpec{
				{Name: "n0"},
				{Name: "n1", Platform: board(2, 6)},
				{Name: "n2", Platform: board(1, 1)},
			},
			Checkpoint: &scenario.CheckpointSpec{FreezeUS: 30_000, PerMBUS: 1_000, SizeMB: 8},
			Apps: []scenario.AppSpec{
				{Name: "sw0", Bench: "SW", Threads: 4, SLO: slo,
					InitBig: scenario.IntPtr(1), InitLittle: scenario.IntPtr(1),
					Target: &scenario.TargetSpec{Min: 40, Avg: 50, Max: 60}},
				{Name: "fe0", Bench: "FE", Threads: 4, StartMS: 500, SLO: slo,
					InitBig: scenario.IntPtr(1), InitLittle: scenario.IntPtr(1),
					Target: &scenario.TargetSpec{Min: 40, Avg: 50, Max: 60}},
				{Name: "bo0", Bench: "BO", Threads: 4, StartMS: 1000, SLO: slo,
					InitBig: scenario.IntPtr(1), InitLittle: scenario.IntPtr(1),
					Target: &scenario.TargetSpec{Min: 40, Avg: 50, Max: 60}},
				{Name: "fl0", Bench: "FL", Threads: 4, StartMS: 1500, SLO: slo,
					InitBig: scenario.IntPtr(1), InitLittle: scenario.IntPtr(1),
					Target: &scenario.TargetSpec{Min: 40, Avg: 50, Max: 60}},
			},
		}
	}

	const maxForks = 3 // contested decisions forked per policy
	const topK = 2     // alternatives replayed per fork

	type row struct {
		policy     string
		res        *scenario.Result
		forked     int
		replays    int
		regretMiss int
		regretJ    float64
		err        error
	}
	policies := fleet.PolicyNames()
	rows := make([]row, len(policies))
	parallelFor(len(rows), func(i int) {
		r := &rows[i]
		r.policy = policies[i]
		sc := mkScenario(r.policy)
		opts := scenario.Options{Strict: true}
		r.res, r.err = scenario.Run(sc, scenario.Options{Strict: true, TraceDecisions: true})
		if r.err != nil {
			return
		}
		// Fork the first contested decisions: picks where the policy had a
		// genuine choice (two or more eligible candidates). Uncontested
		// picks have zero regret by construction.
		for _, rec := range r.res.DecisionRecords {
			if r.forked >= maxForks {
				break
			}
			eligible := 0
			for _, c := range rec.Candidates {
				if c.Reason == "" {
					eligible++
				}
			}
			if eligible < 2 {
				continue
			}
			cf, err := scenario.RunCounterfactual(sc, opts, rec.ID, topK)
			if err != nil {
				r.err = err
				return
			}
			r.forked++
			r.replays += len(cf.Alternatives)
			rm, rj := cf.Regret()
			r.regretMiss += rm
			r.regretJ += rj
		}
	})
	// Rank best-first: fewest missed-SLO regrets, then least energy left on
	// the table, then name for stability.
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].regretMiss != rows[j].regretMiss {
			return rows[i].regretMiss < rows[j].regretMiss
		}
		if rows[i].regretJ != rows[j].regretJ {
			return rows[i].regretJ < rows[j].regretJ
		}
		return rows[i].policy < rows[j].policy
	})
	for _, r := range rows {
		if r.err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s: %v", r.policy, r.err))
			continue
		}
		d := &r.res.Decisions
		rep.Table.AddRow(
			r.policy,
			fmt.Sprint(d.Decisions),
			fmt.Sprint(d.GatedMigrations),
			fmt.Sprint(d.NoCandidate),
			fmt.Sprintf("%.3f", d.MeanMargin()),
			fmt.Sprint(r.forked),
			fmt.Sprint(r.replays),
			fmt.Sprint(r.regretMiss),
			fmt.Sprintf("%.2f", r.regretJ),
			fmt.Sprintf("%016x", r.res.TraceDigest),
		)
	}
	rep.Notes = append(rep.Notes,
		"regret = what the best forced alternative would have saved over the full horizon (0 = the policy's choice was optimal among its candidates)",
		"every fork replays the whole scenario per alternative; determinism makes the prefix before the forked decision bit-identical",
		"gated counts migrate-pass moves the destination-score gate declined — recorded as explicit no-op decisions",
		"mean margin is the winner's score lead over the runner-up across contested picks: thin margins mark decisions worth forking")
	return rep
}
