package experiments

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/scenario"
)

// SLOSweep evaluates SLO-aware, work-conserving fleet scheduling on the
// parallel experiments engine: placement policies × checkpoint-cost
// regimes over a heterogeneous 3-node fleet fed by per-node traffic traces
// (seeded Poisson arrival streams) alongside long-running SLO'd apps. Each
// row reports admission/queue/migration activity, the total time apps
// spent frozen by moves, and the SLO-miss rate — the number the
// cost-regime axis exists to move: free moves migrate eagerly, expensive
// checkpoints make the slo-aware policy hold apps in place.
func SLOSweep(e *Env) *Report {
	rep := &Report{Title: "SLO sweep: placement policies × migration-cost regimes (miss rates, freeze time)"}
	rep.Table.Header = []string{
		"policy", "ckpt cost", "apps", "queued", "dropped", "moves",
		"frozen (ms)", "slo miss", "miss rate", "digest",
	}

	regimes := []struct {
		name string
		spec *scenario.CheckpointSpec
	}{
		{"free", nil},
		{"cheap", &scenario.CheckpointSpec{FreezeUS: 5_000, PerMBUS: 500, SizeMB: 8}},
		{"costly", &scenario.CheckpointSpec{FreezeUS: 250_000, PerMBUS: 25_000, SizeMB: 32}},
	}
	slo := &scenario.SLOSpec{TargetHPS: 3, SlackMS: 150}
	mkScenario := func(policy string, ckpt *scenario.CheckpointSpec) *scenario.Scenario {
		return &scenario.Scenario{
			Name:       fmt.Sprintf("slo-%s", policy),
			Manager:    scenario.ManagerMPHARSI,
			DurationMS: 12000,
			AdaptEvery: 2,
			Placement:  policy,
			Checkpoint: ckpt,
			Nodes: []scenario.NodeSpec{
				{Name: "n0", Platform: board(1, 1)},
				{Name: "n1", Platform: board(2, 6)},
				{Name: "n2"},
			},
			// Two long-running SLO'd apps the migrate pass can shuffle...
			Apps: []scenario.AppSpec{
				{Name: "sw0", Bench: "SW", Threads: 4, SLO: slo,
					InitBig: scenario.IntPtr(1), InitLittle: scenario.IntPtr(1),
					Target: &scenario.TargetSpec{Min: 40, Avg: 50, Max: 60}},
				{Name: "fe0", Bench: "FE", Threads: 4, StartMS: 500, SLO: slo,
					InitBig: scenario.IntPtr(1), InitLittle: scenario.IntPtr(1),
					Target: &scenario.TargetSpec{Min: 40, Avg: 50, Max: 60}},
			},
			// ...plus a traffic trace of short-lived arrivals that keeps
			// saturating the small boards, so queueing and migration fire.
			Arrivals: []scenario.ArrivalStream{{
				Name: "burst", Bench: "BO", Threads: 4, Seed: 9,
				LifetimeMS: 3000, MaxApps: 6, SLO: slo,
				InitBig: scenario.IntPtr(1), InitLittle: scenario.IntPtr(1),
				Target: &scenario.TargetSpec{Min: 40, Avg: 50, Max: 60},
				Rate: []scenario.RateStep{
					{UntilMS: 6000, PerS: 0.8},
					{PerS: 0.2},
				},
			}},
		}
	}

	type row struct {
		policy string
		regime int
		res    *scenario.Result
		err    error
	}
	var rows []row
	for _, policy := range fleet.PolicyNames() {
		for r := range regimes {
			rows = append(rows, row{policy: policy, regime: r})
		}
	}
	parallelFor(len(rows), func(i int) {
		r := &rows[i]
		sc := mkScenario(r.policy, regimes[r.regime].spec)
		r.res, r.err = scenario.Run(sc, scenario.Options{Strict: true})
	})
	for _, r := range rows {
		if r.err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s/%s: %v", r.policy, regimes[r.regime].name, r.err))
			continue
		}
		missRate := 0.0
		if r.res.SLOSamples > 0 {
			missRate = float64(r.res.SLOMisses) / float64(r.res.SLOSamples)
		}
		rep.Table.AddRow(
			r.policy, regimes[r.regime].name,
			fmt.Sprint(len(r.res.Apps)),
			fmt.Sprint(r.res.QueuedArrivals),
			fmt.Sprint(r.res.DroppedArrivals),
			fmt.Sprint(r.res.NodeMigrations),
			fmt.Sprintf("%d", r.res.MigrationDelayUS/1000),
			fmt.Sprintf("%d/%d", r.res.SLOMisses, r.res.SLOSamples),
			fmt.Sprintf("%.2f", missRate),
			fmt.Sprintf("%016x", r.res.TraceDigest),
		)
	}
	rep.Notes = append(rep.Notes,
		"migration is work-conserving: moved apps keep their heartbeat history and progress, frozen for the regime's checkpoint delay",
		"slo miss counts trace samples at which an SLO'd app delivered less than its target rate (queued/frozen apps deliver nothing)",
		"digests are FNV-64a over the full trace; identical runs ⇒ identical digests")
	return rep
}
