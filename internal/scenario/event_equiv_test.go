package scenario

import (
	"bytes"
	"fmt"
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
// suites run under -race in CI, which also exercises the worker-sharded path
// for data races.

// equivVariant is one fast-strategy configuration replayed against the
// lockstep reference.
type equivVariant struct {
	name string
	opts Options
}

// TestEventCoreMatchesLockstep replays the event-driven core, sequential and
// with sharded node advancement, against the lockstep reference.
func TestEventCoreMatchesLockstep(t *testing.T) {
	checkMatchesLockstep(t,
		equivVariant{"event", Options{}},
		equivVariant{"event-sharded", Options{Workers: 4}},
	)
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

// TestWakeIndexMatchesScan replays the event core with node advancement
// sharded two ways, a width no other entry runs. The name is historical
// (the scheduler no longer keeps a wake index beside its NextWake scan).
func TestWakeIndexMatchesScan(t *testing.T) {
	checkMatchesLockstep(t,
		equivVariant{"event-sharded-2", Options{Workers: 2}},
	)
}

// checkMatchesLockstep replays every generated scenario of both seed sets,
// 1–4 and 101–104, through the lockstep reference and each variant.
func checkMatchesLockstep(t *testing.T, variants ...equivVariant) {
	t.Helper()
	policies := []string{"least-loaded", "big-first", "coolest", "slo-aware"}
	// A fixed calibration rate keeps the suite fast (no per-run max-rate
	// calibration); equivalence only needs every variant to see the same
	// targets.
	maxRate := func(string, int) float64 { return 50 }

	for _, seed := range []int64{1, 2, 3, 4, 101, 102, 103, 104} {
		// One policy per seed covers all four in each seed set; the
		// generator alone never draws slo-aware.
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
		})
		// The generator draws neither SLOs nor checkpoint costs; add both
		// so the slo-aware pricing path is on the equivalence surface.
		sc.Checkpoint = &CheckpointSpec{FreezeUS: 30_000, PerMBUS: 1_000, SizeMB: 8}
		for i := range sc.Apps {
			sc.Apps[i].SLO = &SLOSpec{TargetHPS: 20, SlackMS: 150}
		}

		run := func(label string, opts Options) (string, uint64) {
			var buf bytes.Buffer
			opts.Trace = &buf
			opts.MaxRate = maxRate
			opts.Strict = true
			res, err := Run(sc, opts)
			if err != nil {
				t.Fatalf("seed %d (%s, %s): %v", seed, placement, label, err)
			}
			return buf.String(), res.TraceDigest
		}

		refTrace, refDigest := run("lockstep", Options{Lockstep: true})
		for _, v := range variants {
			trace, digest := run(v.name, v.opts)
			if digest != refDigest {
				t.Errorf("seed %d (%s): %s digest %016x != lockstep %016x",
					seed, placement, v.name, digest, refDigest)
			}
			if trace != refTrace {
				t.Errorf("seed %d (%s): %s trace diverged from lockstep (%s)",
					seed, placement, v.name, firstDiff(trace, refTrace))
			}
		}
	}
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
