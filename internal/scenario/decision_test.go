package scenario

import (
	"bytes"
	"strings"
	"testing"
)

// twoNodeDecisionScenario is the counterfactual test bed: two identical
// nodes, migration disabled, so the only decision is app0's admission at
// t=0 — forcing it is exactly equivalent to pinning the app.
func twoNodeDecisionScenario() *Scenario {
	return &Scenario{
		Name:       "cf-2",
		Manager:    ManagerMPHARSI,
		DurationMS: 3000,
		Placement:  "least-loaded",
		// Migration off: the admission pick is the run's only decision.
		MigrateEveryMS: -1,
		Nodes:          []NodeSpec{{Name: "n0"}, {Name: "n1"}},
		Apps: []AppSpec{
			{Name: "app0", Bench: "SW", Threads: 4, TargetFrac: 0.5,
				SLO: &SLOSpec{TargetHPS: 20, SlackMS: 150}},
		},
	}
}

var fixedMaxRate = func(string, int) float64 { return 50 }

// TestDecisionStreamMatchesAcrossCores is the decision-observability
// equivalence suite (the satellite companion to TestEventCoreMatchesLockstep):
// generated thermal+SLO+fault fleet scenarios with decision tracing enabled
// replay through the lockstep core and the event-driven core, and the full
// trace — decision "d" lines included — must be byte-identical across both.
// Runs under -race in CI.
func TestDecisionStreamMatchesAcrossCores(t *testing.T) {
	policies := []string{"least-loaded", "big-first", "coolest", "slo-aware"}
	for seed := int64(1); seed <= 4; seed++ {
		placement := policies[(seed-1)%int64(len(policies))]
		sc := Generate(seed, GenConfig{
			Nodes:      3,
			MaxApps:    3,
			Events:     5,
			DurationMS: 6000,
			Placement:  placement,
			Thermal:    seed%2 == 0,
			Periodic:   true,
			Faults:     true,
			Decisions:  true,
		})
		sc.Checkpoint = &CheckpointSpec{FreezeUS: 30_000, PerMBUS: 1_000, SizeMB: 8}
		for i := range sc.Apps {
			sc.Apps[i].SLO = &SLOSpec{TargetHPS: 20, SlackMS: 150}
		}

		run := func(lockstep bool) (string, uint64, uint64) {
			var buf bytes.Buffer
			res, err := Run(sc, Options{
				Trace:    &buf,
				MaxRate:  fixedMaxRate,
				Strict:   true,
				Lockstep: lockstep,
			})
			if err != nil {
				t.Fatalf("seed %d (%s, lockstep=%v): %v", seed, placement, lockstep, err)
			}
			return buf.String(), res.TraceDigest, res.Decisions.Decisions
		}

		refTrace, refDigest, refDecisions := run(true)
		if refDecisions == 0 || !strings.Contains(refTrace, "\nd,") {
			t.Fatalf("seed %d: no decisions on the trace surface", seed)
		}
		trace, digest, decisions := run(false)
		if digest != refDigest {
			t.Errorf("seed %d (%s): event digest %016x != lockstep %016x",
				seed, placement, digest, refDigest)
		}
		if trace != refTrace {
			t.Errorf("seed %d (%s): event trace diverged from lockstep (%s)",
				seed, placement, firstDiff(trace, refTrace))
		}
		if decisions != refDecisions {
			t.Errorf("seed %d (%s): event made %d decisions, lockstep %d",
				seed, placement, decisions, refDecisions)
		}
	}
}

// TestDecisionTraceAdditive pins the gating contract: decision tracing only
// ADDS lines ("# d" header, "d," rows) to a trace — stripping them yields
// the disabled run's bytes exactly, so with tracing off nothing in the
// output can tell the decision layer exists.
func TestDecisionTraceAdditive(t *testing.T) {
	sc := Generate(2, GenConfig{
		Nodes: 3, MaxApps: 3, Events: 5, DurationMS: 4000,
		Placement: "least-loaded", Periodic: true, Faults: true,
	})

	run := func(traceDecisions bool) string {
		var buf bytes.Buffer
		_, err := Run(sc, Options{Trace: &buf, MaxRate: fixedMaxRate, TraceDecisions: traceDecisions})
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	off := run(false)
	on := run(true)
	if strings.Contains(off, "\nd,") || strings.Contains(off, "# d,") {
		t.Fatal("decision lines leaked into an untraced run")
	}
	if !strings.Contains(on, "\nd,") {
		t.Fatal("decision tracing produced no d lines")
	}
	var stripped strings.Builder
	for _, line := range strings.SplitAfter(on, "\n") {
		if strings.HasPrefix(line, "d,") || strings.HasPrefix(line, "# d,") {
			continue
		}
		stripped.WriteString(line)
	}
	if stripped.String() != off {
		t.Fatalf("decision tracing perturbed the underlying trace (%s)",
			firstDiff(stripped.String(), off))
	}
}

// TestCounterfactualMatchesPinnedSpec is the acceptance check for the
// forcing seam: forcing app0's admission (decision 0) onto n1 must produce
// exactly the run an independently written spec with the app pinned to n1
// produces — byte-identical trace digests, identical rollups.
func TestCounterfactualMatchesPinnedSpec(t *testing.T) {
	sc := twoNodeDecisionScenario()
	opts := Options{MaxRate: fixedMaxRate, Strict: true}

	// Baseline: least-loaded ties to n0.
	base, err := Run(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if base.Apps[0].Node != "n0" {
		t.Fatalf("baseline placed app0 on %q", base.Apps[0].Node)
	}

	fopts := opts
	fopts.ForceDecisions = map[uint64]string{0: "n1"}
	forced, err := Run(sc, fopts)
	if err != nil {
		t.Fatal(err)
	}
	if forced.Apps[0].Node != "n1" {
		t.Fatalf("forced run placed app0 on %q", forced.Apps[0].Node)
	}

	pinned := twoNodeDecisionScenario()
	pinned.Apps[0].Node = "n1"
	pres, err := Run(pinned, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pres.TraceDigest != forced.TraceDigest {
		t.Fatalf("forced digest %016x != pinned-spec digest %016x",
			forced.TraceDigest, pres.TraceDigest)
	}
	if forced.EnergyJ != pres.EnergyJ || forced.SLOMisses != pres.SLOMisses {
		t.Fatalf("forced run diverged from pinned spec: energy %v/%v misses %d/%d",
			forced.EnergyJ, pres.EnergyJ, forced.SLOMisses, pres.SLOMisses)
	}

	// Unknown node names reject the run instead of silently no-oping.
	bad := opts
	bad.ForceDecisions = map[uint64]string{0: "n9"}
	if _, err := Run(sc, bad); err == nil || !strings.Contains(err.Error(), "unknown node") {
		t.Fatalf("unknown forced node accepted: %v", err)
	}
}

// TestRunCounterfactual pins the counterfactual engine end to end: the
// report's baseline matches a direct run, the alternatives are the
// non-chosen eligible candidates in score order, and each alternative's
// deltas equal an independently forced replay's outcomes minus baseline.
func TestRunCounterfactual(t *testing.T) {
	sc := twoNodeDecisionScenario()
	opts := Options{MaxRate: fixedMaxRate}

	cf, err := RunCounterfactual(sc, opts, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cf.ID != 0 || cf.Decision.App != "app0" || cf.Decision.Chosen != "n0" {
		t.Fatalf("counterfactual decision = %+v", cf.Decision)
	}
	if len(cf.Alternatives) != 1 || cf.Alternatives[0].Node != "n1" {
		t.Fatalf("alternatives = %+v", cf.Alternatives)
	}

	base, err := Run(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cf.BaselineSLOMisses != base.SLOMisses || cf.BaselineEnergyJ != base.EnergyJ {
		t.Fatalf("baseline mismatch: %+v vs %+v", cf, base)
	}

	fopts := opts
	fopts.ForceDecisions = map[uint64]string{0: "n1"}
	forced, err := Run(sc, fopts)
	if err != nil {
		t.Fatal(err)
	}
	alt := cf.Alternatives[0]
	if alt.SLOMisses != forced.SLOMisses || alt.EnergyJ != forced.EnergyJ ||
		alt.NodeMigrations != forced.NodeMigrations {
		t.Fatalf("alternative outcomes %+v != forced run (%d, %v, %d)",
			alt, forced.SLOMisses, forced.EnergyJ, forced.NodeMigrations)
	}
	if alt.DSLOMisses != forced.SLOMisses-base.SLOMisses ||
		alt.DEnergyJ != forced.EnergyJ-base.EnergyJ {
		t.Fatalf("deltas wrong: %+v", alt)
	}

	// Regret is non-negative and consistent with the single alternative.
	rm, re := cf.Regret()
	if rm < 0 {
		t.Fatalf("negative regret %d", rm)
	}
	if wantM := -alt.DSLOMisses; wantM > 0 && rm != wantM {
		t.Fatalf("regret misses = %d, want %d", rm, wantM)
	}
	_ = re

	// An ID the run never reached is a clear error.
	if _, err := RunCounterfactual(sc, opts, 999, 3); err == nil ||
		!strings.Contains(err.Error(), "not recorded") {
		t.Fatalf("unrecorded decision accepted: %v", err)
	}
}

// TestDecisionSpecValidation pins the spec surface: a negative keep is
// rejected, an enabled block survives a JSON round trip, and the records
// land in Result.DecisionRecords with the log's retention honoured.
func TestDecisionSpecValidation(t *testing.T) {
	sc := twoNodeDecisionScenario()
	sc.Decisions = &DecisionSpec{Enabled: true, Keep: -1}
	if _, err := Run(sc, Options{MaxRate: fixedMaxRate}); err == nil ||
		!strings.Contains(err.Error(), "negative keep") {
		t.Fatalf("negative keep accepted: %v", err)
	}

	sc.Decisions = &DecisionSpec{Enabled: true, Keep: 1}
	res, err := Run(sc, Options{MaxRate: fixedMaxRate})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions.Decisions == 0 {
		t.Fatal("no decisions in the rollup")
	}
	if len(res.DecisionRecords) != 1 {
		t.Fatalf("kept %d records, want the keep=1 cap", len(res.DecisionRecords))
	}
	if res.Decisions.Decisions > 1 && res.DecisionsDropped == 0 {
		t.Fatalf("dropped count missing: %+v", res.Decisions)
	}

	var enc bytes.Buffer
	if err := sc.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	rt, err := Decode(&enc)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Decisions == nil || !rt.Decisions.Enabled || rt.Decisions.Keep != 1 {
		t.Fatalf("decisions block lost in round trip: %+v", rt.Decisions)
	}
}
