package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// The scenario equivalence suites share one fixture: generated multi-node
// scenarios — thermal loops, SLO'd apps over a real checkpoint-cost model,
// seeded fault injection, all four placement policies — replayed through the
// lockstep reference (every machine stepped tick by tick) and through fast
// variants of the event-driven core with its certified machine windows.
// Every variant must produce byte-identical traces and digests. Strict mode
// keeps the runtime invariant checkers on the equivalence surface. The
// suites run under -race in CI.

// equivVariant is one fast-strategy configuration replayed against the
// lockstep reference.
type equivVariant struct {
	name string
	opts Options
}

// TestEventCoreMatchesLockstep replays the event-driven core against the
// lockstep reference.
func TestEventCoreMatchesLockstep(t *testing.T) {
	checkMatchesLockstep(t, equivVariant{"event", Options{}})
}

// TestSteadyMatchesGeneral pins the machines' certified windows to the
// general per-tick loop: a no-op PerTick daemon declines every window, so
// each machine steps tick by tick while the fleet still jumps between
// barriers. The windowed event core is the "event" variant of
// TestEventCoreMatchesLockstep, against the same reference.
func TestSteadyMatchesGeneral(t *testing.T) {
	checkMatchesLockstep(t,
		equivVariant{"steady-off", Options{PerTick: func(*sim.Machine) {}}},
	)
}

// TestWakeIndexMatchesScan replays the event core, whose barriers come
// from the scheduler's NextWake scan, against the lockstep reference. The
// name is historical (the scheduler no longer keeps a wake index beside
// that scan).
func TestWakeIndexMatchesScan(t *testing.T) {
	checkMatchesLockstep(t, equivVariant{"event", Options{}})
}

// checkMatchesLockstep replays every input of equivInputs through the
// lockstep reference and each variant.
func checkMatchesLockstep(t *testing.T, variants ...equivVariant) {
	t.Helper()
	// A fixed calibration rate keeps the suite fast (no per-run max-rate
	// calibration); equivalence only needs every variant to see the same
	// targets.
	maxRate := func(string, int) float64 { return 50 }

	for _, in := range equivInputs() {
		sc := in.sc
		// The generator draws neither SLOs nor checkpoint costs; add both
		// so the slo-aware pricing path is on the equivalence surface.
		sc.Checkpoint = &CheckpointSpec{FreezeUS: 30_000, PerMBUS: 1_000, SizeMB: 8}
		for i := range sc.Apps {
			sc.Apps[i].SLO = &SLOSpec{TargetHPS: 20, SlackMS: 150}
		}

		run := func(label string, opts Options) (*Result, string) {
			var buf bytes.Buffer
			opts.Trace = &buf
			opts.MaxRate = maxRate
			opts.Strict = true
			res, err := Run(sc, opts)
			if err != nil {
				t.Fatalf("%s (%s): %v", in.label, label, err)
			}
			return res, buf.String()
		}

		ref, refTrace := run("lockstep", Options{Lockstep: true})
		if in.reaches != nil {
			if err := in.reaches(ref, refTrace); err != nil {
				t.Errorf("%s: %v", in.label, err)
			}
		}
		for _, v := range variants {
			res, trace := run(v.name, v.opts)
			if res.TraceDigest != ref.TraceDigest {
				t.Errorf("%s: %s digest %016x != lockstep %016x",
					in.label, v.name, res.TraceDigest, ref.TraceDigest)
			}
			if trace != refTrace {
				t.Errorf("%s: %s trace diverged from lockstep (%s)",
					in.label, v.name, firstDiff(trace, refTrace))
			}
		}
	}
}

// equivInput is one scenario of the shared fixture. reaches, when set,
// checks on the lockstep run that the input still exercises the paths it
// was added for, so a generator change cannot silently drop them.
type equivInput struct {
	label   string
	sc      *Scenario
	reaches func(res *Result, trace string) error
}

// equivInputs lists the fixture's generated fleets: both seed sets, 1–4 and
// 101–104, then one fleet that reaches Admit's restore branches and one
// with a GTS-placed node.
func equivInputs() []equivInput {
	policies := []string{"least-loaded", "big-first", "coolest", "slo-aware"}
	var out []equivInput
	for _, seed := range []int64{1, 2, 3, 4, 101, 102, 103, 104} {
		// One policy per seed covers all four in each seed set; the
		// generator alone never draws slo-aware.
		placement := policies[(seed-1)%int64(len(policies))]
		out = append(out, equivInput{
			label: fmt.Sprintf("seed %d (%s)", seed, placement),
			sc: Generate(seed, GenConfig{
				Nodes:      3,
				MaxApps:    3,
				Events:     5,
				DurationMS: 6000,
				Placement:  placement,
				Thermal:    seed%2 == 0,
				Periodic:   true,
				Faults:     true,
			}),
		})
	}

	// The fleets above make no migration and no transfer failure, and run
	// only mphars-i nodes. This one migrates, recovers from snapshots, fails
	// a transfer, and restores an app onto its last node, switched to HARS-E.
	sc := Generate(124, GenConfig{Nodes: 3, MaxApps: 5, Events: 5, DurationMS: 8000, Periodic: true, Faults: true})
	last := len(sc.Nodes) - 1
	sc.Nodes[last].Manager = ManagerHARSE
	harsNode := sc.Nodes[last].Name
	out = append(out, equivInput{
		label: "seed 124 (restore onto hars-e)",
		sc:    sc,
		reaches: func(res *Result, trace string) error {
			// With faults on, a restore promotes its checkpoint to the app's
			// crash restore point, so every admission after an app's first
			// migration restores: a migrated app that ended on the HARS-E
			// node under a manager had that manager attached on restore.
			restoredOnHARS := false
			for _, a := range res.Apps {
				if a.NodeMigrations > 0 && a.Node == harsNode && res.Managers[a.Name] != nil {
					restoredOnHARS = true
				}
			}
			switch {
			case res.NodeMigrations == 0:
				return errors.New("no migration")
			case !strings.Contains(trace, ",recover,"):
				return errors.New("no recovery from a snapshot")
			case res.TransferFails == 0:
				return errors.New("no transfer failure")
			case !restoredOnHARS:
				return fmt.Errorf("no app restored onto %s under a HARS-E manager", harsNode)
			}
			return nil
		},
	})

	// No fleet above places with GTS. This one switches its first node to
	// the GTS placer, whose machines advance in windows that carry the
	// placer's own ticker ahead of the thermal governor's.
	sc = Generate(128, GenConfig{Nodes: 3, MaxApps: 4, Events: 5, DurationMS: 6000, Placement: "coolest", Thermal: true, Periodic: true, Faults: true})
	sc.Nodes[0].Manager = ManagerGTS
	gtsNode := sc.Nodes[0].Name
	out = append(out, equivInput{
		label: "seed 128 (gts node)",
		sc:    sc,
		reaches: func(res *Result, trace string) error {
			for _, a := range res.Apps {
				if a.Node == gtsNode && a.NodeMigrations == 0 && a.Recoveries == 0 && a.Work > 0 {
					return nil
				}
			}
			return fmt.Errorf("no app ran on %s alone", gtsNode)
		},
	})
	return out
}

// firstDiff locates the first byte two traces disagree on, with context.
func firstDiff(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("byte %d: %q vs %q", i, a[lo:i+1], b[lo:i+1])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(a), len(b))
}
