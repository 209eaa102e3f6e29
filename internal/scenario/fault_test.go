package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/sim"
)

// faultScenario is a 3-node fleet with a scripted mid-run crash of n1 (which
// heals), a seeded random crash process, and flaky checkpoint transfers —
// every fault mechanism at once. a0 is pinned to the crashing node so at
// least one salvage/recovery is guaranteed under every policy.
func faultScenario(placement string) *Scenario {
	return &Scenario{
		Name:       "fault-replay",
		Manager:    ManagerMPHARSI,
		DurationMS: 12000,
		Placement:  placement,
		Nodes: []NodeSpec{
			{Name: "n0"},
			{Name: "n1", Platform: littleHeavyPlatform()},
			{Name: "n2"},
		},
		Apps: []AppSpec{
			{Name: "a0", Bench: "SW", Threads: 4, Node: "n1", TargetFrac: 0.4,
				InitBig: IntPtr(1), InitLittle: IntPtr(1)},
			{Name: "a1", Bench: "FE", Threads: 4, TargetFrac: 0.4,
				InitBig: IntPtr(1), InitLittle: IntPtr(1)},
			{Name: "a2", Bench: "BO", Threads: 4, StartMS: 500, TargetFrac: 0.4,
				InitBig: IntPtr(1), InitLittle: IntPtr(1)},
		},
		Faults: &fault.Spec{
			Seed:              5,
			CheckpointEveryMS: 400,
			TransferFailProb:  0.25,
			Crashes:           []fault.Crash{{Node: "n1", AtMS: 2000, DownMS: 3000}},
			Random:            &fault.RandomCrashes{RatePerMin: 10, DownMS: 2500},
		},
	}
}

// TestFaultReplayByteIdentical pins the acceptance criterion: a scenario
// exercising crashes, recovery, random faults, and transfer retries replays
// byte-identically across runs, under every placement policy.
func TestFaultReplayByteIdentical(t *testing.T) {
	for _, placement := range fleet.PolicyNames() {
		var first []byte
		for rep := 0; rep < 2; rep++ {
			var buf bytes.Buffer
			res, err := Run(faultScenario(placement), Options{
				Trace: &buf, Strict: true, CheckEveryTick: true,
			})
			if err != nil {
				t.Fatalf("%s rep %d: %v", placement, rep, err)
			}
			if res.NodeCrashes == 0 {
				t.Fatalf("%s: no crash applied", placement)
			}
			if res.Recoveries == 0 {
				t.Fatalf("%s: pinned app on the crashed node was never salvaged", placement)
			}
			if rep == 0 {
				first = buf.Bytes()
			} else if !bytes.Equal(buf.Bytes(), first) {
				t.Fatalf("%s: replay trace differs", placement)
			}
		}
	}
}

// TestFaultRecoveryWithCapacity pins graceful recovery: when surviving
// capacity can host everything, a crash (and flaky transfers) permanently
// loses nothing — every app is live again by the end of the run.
func TestFaultRecoveryWithCapacity(t *testing.T) {
	sc := faultScenario("least-loaded")
	sc.DurationMS = 14000
	sc.Faults.Crashes[0].DownMS = 4000
	sc.Faults.TransferFailProb = 0.3
	// No random crash process: a crash landing in the run's final
	// heartbeat-timeout window would legitimately strand the pinned app.
	sc.Faults.Random = nil
	res, err := Run(sc, Options{Strict: true, CheckEveryTick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeCrashes == 0 || res.Recoveries == 0 {
		t.Fatalf("no fault activity: crashes=%d recoveries=%d", res.NodeCrashes, res.Recoveries)
	}
	if res.StrandedApps != 0 || res.DroppedArrivals != 0 {
		t.Fatalf("apps lost despite surviving capacity: stranded=%d dropped=%d",
			res.StrandedApps, res.DroppedArrivals)
	}
	for _, a := range res.Apps {
		if a.Skipped || a.Stranded {
			t.Fatalf("app %s lost: skipped=%v stranded=%v", a.Name, a.Skipped, a.Stranded)
		}
		if a.Beats == 0 {
			t.Fatalf("app %s never made progress", a.Name)
		}
	}
}

// TestFaultLostWorkBounded is the rollback property: work lost to a crash is
// bounded by the background snapshot interval. Each crash charges an app at
// most once, there is at most one undetected trailing crash beyond its
// counted recoveries, and passes land on tick boundaries — hence the
// (Recoveries+1) × (interval+tick) bound, swept over generated scenarios.
func TestFaultLostWorkBounded(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		sc := Generate(seed, GenConfig{
			Manager:    ManagerMPHARSI,
			DurationMS: 8000,
			Events:     4,
			Nodes:      2 + int(seed%2),
			Faults:     true,
		})
		if sc.Faults == nil {
			t.Fatalf("seed %d: generator drew no faults block", seed)
		}
		res, err := Run(sc, Options{Strict: true, CheckEveryTick: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		bound := sim.Time(sc.Faults.CheckpointEveryMS)*sim.Millisecond + sim.Millisecond
		for _, a := range res.Apps {
			if max := sim.Time(a.Recoveries+1) * bound; a.LostWorkUS > max {
				t.Fatalf("seed %d app %s: lost %d µs over %d recoveries, bound %d µs",
					seed, a.Name, a.LostWorkUS, a.Recoveries, max)
			}
		}
	}
}

// TestFaultDepartedAppNotCharged pins that a crash charges and detaches only
// the apps still running on the node. An app that departed earlier keeps its
// last node and its killed process for the result, but it has no work left to
// lose, and a departed HARS app keeps its manager in Result.Managers.
func TestFaultDepartedAppNotCharged(t *testing.T) {
	for _, mgr := range []string{ManagerMPHARSI, ManagerHARSE, ManagerNone} {
		sc := &Scenario{
			Name:       "fault-departed",
			Manager:    mgr,
			DurationMS: 4000,
			Nodes:      []NodeSpec{{Name: "n0"}, {Name: "n1"}},
			Apps: []AppSpec{
				{Name: "a0", Bench: "SW", Threads: 4, Node: "n0", StopMS: 1000, TargetFrac: 0.4,
					InitBig: IntPtr(1), InitLittle: IntPtr(1)},
			},
			Faults: &fault.Spec{
				Seed:              1,
				CheckpointEveryMS: 400,
				Crashes:           []fault.Crash{{Node: "n0", AtMS: 2500, DownMS: 500}},
			},
		}
		res, err := Run(sc, Options{Strict: true, CheckEveryTick: true})
		if err != nil {
			t.Fatalf("%s: %v", mgr, err)
		}
		if res.NodeCrashes != 1 {
			t.Fatalf("%s: %d crashes applied, want 1", mgr, res.NodeCrashes)
		}
		a := res.Apps[0]
		if !a.Departed || a.Beats == 0 {
			t.Fatalf("%s: a0 departed=%v beats=%d, want it to run and depart before the crash",
				mgr, a.Departed, a.Beats)
		}
		if a.LostWorkUS != 0 || res.LostWorkUS != 0 || a.Recoveries != 0 {
			t.Errorf("%s: departed a0 charged by the crash: lost=%dµs (run %dµs) recoveries=%d",
				mgr, a.LostWorkUS, res.LostWorkUS, a.Recoveries)
		}
		if hasMgr := res.Managers["a0"] != nil; hasMgr != (mgr == ManagerHARSE) {
			t.Errorf("%s: Result.Managers has a0: %v", mgr, hasMgr)
		}
	}
}

// TestFaultQueuedAppsSurviveCrash pins admission-queue behavior around a
// permanent node crash: apps bound to the dead node stay queued or park with
// their checkpoint — visibly counted, never silently dropped — while the
// queue keeps serving everyone else.
func TestFaultQueuedAppsSurviveCrash(t *testing.T) {
	sc := &Scenario{
		Name:       "fault-queue",
		Manager:    ManagerMPHARSI,
		DurationMS: 10000,
		Nodes: []NodeSpec{
			{Name: "n0", Platform: tinyPlatform()},
			{Name: "n1"},
		},
		Apps: []AppSpec{
			// a0 fills the tiny node, then crashes with it: salvaged, but
			// pinned to a node that never returns — parked forever.
			{Name: "a0", Bench: "SW", Threads: 4, Node: "n0", TargetFrac: 0.4,
				InitBig: IntPtr(1), InitLittle: IntPtr(1)},
			{Name: "a1", Bench: "FE", Threads: 4, TargetFrac: 0.4,
				InitBig: IntPtr(1), InitLittle: IntPtr(1)},
			// a2 arrives while its pinned node is already dead: queued,
			// never admitted, reported as dropped (not lost silently).
			{Name: "a2", Bench: "BO", Threads: 4, StartMS: 2100, Node: "n0", TargetFrac: 0.4,
				InitBig: IntPtr(1), InitLittle: IntPtr(1)},
			// a3 arrives after the crash with dead-node apps clogging the
			// queue: admission must still work — the queue must not wedge.
			{Name: "a3", Bench: "SW", Threads: 4, StartMS: 6000, TargetFrac: 0.4,
				InitBig: IntPtr(1), InitLittle: IntPtr(1)},
		},
		Faults: &fault.Spec{
			Seed:              1,
			CheckpointEveryMS: 500,
			Crashes:           []fault.Crash{{Node: "n0", AtMS: 2000}}, // never recovers
		},
	}
	res, err := Run(sc, Options{Strict: true, CheckEveryTick: true})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AppResult{}
	for _, a := range res.Apps {
		byName[a.Name] = a
	}
	a0 := byName["a0"]
	if a0.Recoveries != 1 || !a0.Stranded || a0.Beats == 0 {
		t.Fatalf("a0: recoveries=%d stranded=%v beats=%d, want salvaged once and parked",
			a0.Recoveries, a0.Stranded, a0.Beats)
	}
	a2 := byName["a2"]
	if !a2.Skipped || !a2.Queued || a2.Beats != 0 {
		t.Fatalf("a2: skipped=%v queued=%v beats=%d, want queued forever and reported dropped",
			a2.Skipped, a2.Queued, a2.Beats)
	}
	for _, name := range []string{"a1", "a3"} {
		a := byName[name]
		if a.Skipped || a.Stranded || a.Beats == 0 || a.Node != "n1" {
			t.Fatalf("%s: skipped=%v stranded=%v beats=%d node=%q, want running on n1",
				name, a.Skipped, a.Stranded, a.Beats, a.Node)
		}
	}
	if res.StrandedApps != 1 || res.DroppedArrivals != 1 {
		t.Fatalf("rollup: stranded=%d dropped=%d, want 1/1", res.StrandedApps, res.DroppedArrivals)
	}
}

// TestDecodeRejectsTrailingData pins the partial-decode fix: a scenario
// document followed by trailing content is an error, not a silent success
// over the prefix.
func TestDecodeRejectsTrailingData(t *testing.T) {
	valid := `{"manager":"none","duration_ms":100,"apps":[{"name":"a","bench":"SW"}]}`
	if _, err := Decode(strings.NewReader(valid + "\n\t ")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
	for _, trailer := range []string{`{"x":1}`, `null`, `garbage`, `]`} {
		_, err := Decode(strings.NewReader(valid + trailer))
		if err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Fatalf("trailer %q: error %v, want trailing-data rejection", trailer, err)
		}
	}
}

// TestGenerateFaultsValid sweeps the fault-generating path: every scenario
// validates, generation is deterministic, and the Faults flag only appends
// draws — the base scenario is identical with the flag on or off.
func TestGenerateFaultsValid(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		cfg := GenConfig{Manager: ManagerMPHARSI, Nodes: 2 + int(seed%3), Faults: true}
		sc := Generate(seed, cfg)
		if sc.Faults == nil {
			t.Fatalf("seed %d: no faults block generated", seed)
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(sc, Generate(seed, cfg)) {
			t.Fatalf("seed %d: generation is not deterministic", seed)
		}
		base := cfg
		base.Faults = false
		plain := Generate(seed, base)
		stripped := *sc
		stripped.Faults = nil
		if !reflect.DeepEqual(&stripped, plain) {
			t.Fatalf("seed %d: faults flag changed the base scenario", seed)
		}
	}
}
