package scenario

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/hmp"
	"repro/internal/sim"
)

// loadTestdata decodes the checked-in showcase scenario.
func loadTestdata(t *testing.T) *Scenario {
	t.Helper()
	f, err := os.Open("testdata/dynamic.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, err := Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestDecodeRejectsOversizedBoards: a node board the simulator cannot
// represent fails to decode with an error naming the limit. 40 + 40 cores
// used to validate and run with CPUs 64–79 never online (a CPU mask is 64
// bits); 20000 cores per cluster used to die out of memory building the
// estimator memo; more than 32 OPPs per cluster is likewise refused.
func TestDecodeRejectsOversizedBoards(t *testing.T) {
	cases := []struct {
		name        string
		big, little int
		littleOPPs  int
		want        string
	}{
		{"40+40 cores", 40, 40, 0, "more than the 64 a CPU mask holds"},
		{"20000 cores per cluster", 20000, 20000, 0, "more than the 64 a CPU mask holds"},
		{"33 OPPs", 4, 4, 33, "more than the 32 supported"},
	}
	for _, c := range cases {
		plat := hmp.Default()
		plat.Clusters[hmp.Big].Cores = c.big
		plat.Clusters[hmp.Little].Cores = c.little
		if c.littleOPPs > 0 {
			opps := make([]hmp.OPP, c.littleOPPs)
			for i := range opps {
				opps[i] = hmp.OPP{KHz: 800_000 + 10_000*i, MilliVolt: 900}
			}
			plat.Clusters[hmp.Little].OPPs = opps
		}
		sc := &Scenario{
			Name: "oversized", Manager: ManagerHARSE, DurationMS: 1000,
			Nodes: []NodeSpec{{Name: "n0", Platform: plat}},
			Apps:  []AppSpec{{Name: "app0", Bench: "SW", Threads: 4, TargetFrac: 0.5}},
		}
		var buf bytes.Buffer
		if err := sc.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := Decode(&buf)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Decode err = %v, want it to name the limit (%q)", c.name, err, c.want)
		}
	}
}

// TestDecodeRejectsOversizedApps pins the thread bound: more than 1024
// threads in a declared app or in an arrival stream's template fails
// Decode with the limit named, instead of exhausting memory at spawn,
// and exactly 1024 still validates.
func TestDecodeRejectsOversizedApps(t *testing.T) {
	decode := func(threads int, stream bool) error {
		sc := &Scenario{
			Name: "oversized", Manager: ManagerHARSE, DurationMS: 1000,
			Apps: []AppSpec{{Name: "app0", Bench: "SW", Threads: 4, TargetFrac: 0.5}},
		}
		if stream {
			sc.Arrivals = []ArrivalStream{{Name: "s", Bench: "SW", Threads: threads,
				Rate: []RateStep{{PerS: 2}}}}
		} else {
			sc.Apps[0].Threads = threads
		}
		var buf bytes.Buffer
		if err := sc.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := Decode(&buf)
		return err
	}
	for _, stream := range []bool{false, true} {
		if err := decode(1025, stream); err == nil || !strings.Contains(err.Error(), "above the 1024 cap") {
			t.Errorf("stream=%v: 1025 threads: Decode err = %v, want it to name the 1024 cap", stream, err)
		}
		if err := decode(1024, stream); err != nil {
			t.Errorf("stream=%v: 1024 threads: %v", stream, err)
		}
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"garbage":        `{nope`,
		"unknown field":  `{"manager":"none","duration_ms":1000,"bogus":1,"apps":[{"name":"a","bench":"SW"}]}`,
		"no apps":        `{"manager":"none","duration_ms":1000}`,
		"bad manager":    `{"manager":"hal9000","duration_ms":1000,"apps":[{"name":"a","bench":"SW"}]}`,
		"bad bench":      `{"manager":"none","duration_ms":1000,"apps":[{"name":"a","bench":"ZZ"}]}`,
		"dup app":        `{"manager":"none","duration_ms":1000,"apps":[{"name":"a","bench":"SW"},{"name":"a","bench":"FE"}]}`,
		"stop before":    `{"manager":"none","duration_ms":1000,"apps":[{"name":"a","bench":"SW","start_ms":500,"stop_ms":200}]}`,
		"late start":     `{"manager":"none","duration_ms":1000,"apps":[{"name":"a","bench":"SW","start_ms":1000}]}`,
		"bad event kind": `{"manager":"none","duration_ms":1000,"apps":[{"name":"a","bench":"SW"}],"events":[{"at_ms":1,"kind":"explode"}]}`,
		"hotplug no online": `{"manager":"none","duration_ms":1000,"apps":[{"name":"a","bench":"SW"}],
			"events":[{"at_ms":1,"kind":"hotplug","cpu":1}]}`,
		"hotplug bad cpu": `{"manager":"none","duration_ms":1000,"apps":[{"name":"a","bench":"SW"}],
			"events":[{"at_ms":1,"kind":"hotplug","cpu":64,"online":false}]}`,
		"cap bad cluster": `{"manager":"none","duration_ms":1000,"apps":[{"name":"a","bench":"SW"}],
			"events":[{"at_ms":1,"kind":"dvfs_cap","cluster":"medium","max_level":1}]}`,
		"cap bad level": `{"manager":"none","duration_ms":1000,"apps":[{"name":"a","bench":"SW"}],
			"events":[{"at_ms":1,"kind":"dvfs_cap","cluster":"big","max_level":99}]}`,
		"target unknown app": `{"manager":"none","duration_ms":1000,"apps":[{"name":"a","bench":"SW"}],
			"events":[{"at_ms":1,"kind":"target","app":"b","frac":0.5}]}`,
		"phase bad scale": `{"manager":"none","duration_ms":1000,"apps":[{"name":"a","bench":"SW"}],
			"events":[{"at_ms":1,"kind":"phase","app":"a","scale":0}]}`,
	}
	for name, in := range cases {
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestValidateRejectsStrandedMachine covers the chronological hotplug check:
// a sequence that takes the last core offline is rejected even though every
// individual event is well formed.
func TestValidateRejectsStrandedMachine(t *testing.T) {
	sc := &Scenario{
		Manager:    ManagerNone,
		DurationMS: 1000,
		Apps:       []AppSpec{{Name: "a", Bench: "SW"}},
	}
	off := false
	for cpu := 0; cpu < hmp.Default().TotalCores(); cpu++ {
		sc.Events = append(sc.Events, Event{
			AtMS: int64(cpu + 1), Kind: KindHotplug, CPU: cpu, Online: &off,
		})
	}
	if err := sc.Validate(); err == nil {
		t.Fatal("scenario stranding the machine accepted")
	}
	// Bringing one back in between makes it legal again.
	on := true
	sc.Events = append(sc.Events[:len(sc.Events)-1], Event{
		AtMS: 7, Kind: KindHotplug, CPU: 0, Online: &on,
	})
	if err := sc.Validate(); err != nil {
		t.Fatalf("legal hotplug sequence rejected: %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, sc := range []*Scenario{
		loadTestdata(t),
		Generate(11, GenConfig{}),
		Generate(12, GenConfig{Manager: ManagerHARSE, MaxApps: 2}),
	} {
		var buf bytes.Buffer
		if err := sc.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(got, sc) {
			t.Fatalf("%s: round trip changed the scenario:\n%+v\n%+v", sc.Name, got, sc)
		}
	}
}

// TestGenerateAlwaysValid sweeps seeds and managers: every generated
// scenario validates, and generation is deterministic per seed.
func TestGenerateAlwaysValid(t *testing.T) {
	managers := []string{ManagerNone, ManagerGTS, ManagerHARSI, ManagerHARSE, ManagerMPHARSI, ManagerMPHARSE}
	for seed := int64(1); seed <= 40; seed++ {
		cfg := GenConfig{Manager: managers[seed%int64(len(managers))], Events: 8}
		sc := Generate(seed, cfg)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		again := Generate(seed, cfg)
		if !reflect.DeepEqual(sc, again) {
			t.Fatalf("seed %d: generation is not deterministic", seed)
		}
	}
}

// TestRunDeterminism is the acceptance gate: replaying the showcase
// scenario (arrival, departure, hotplug, DVFS cap, target, phase — six
// distinct event types) twice produces byte-identical traces and equal
// digests.
func TestRunDeterminism(t *testing.T) {
	sc := loadTestdata(t)
	var a, b bytes.Buffer
	ra, err := Run(sc, Options{Trace: &a, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(sc, Options{Trace: &b, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("trace output differs between two replays of the same scenario")
	}
	if ra.TraceDigest != rb.TraceDigest {
		t.Fatalf("trace digests differ: %x vs %x", ra.TraceDigest, rb.TraceDigest)
	}
	if a.Len() == 0 || ra.Samples == 0 {
		t.Fatal("empty trace")
	}
	// The digest also matches a traceless run, so the digest alone is a
	// sufficient determinism witness for sweeps.
	rc, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rc.TraceDigest != ra.TraceDigest {
		t.Fatal("digest depends on whether a trace writer is attached")
	}
}

// TestDynamicEventsTakeEffect checks each event kind leaves its observable
// footprint on the run.
func TestDynamicEventsTakeEffect(t *testing.T) {
	sc := loadTestdata(t)
	res, err := Run(sc, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Machine

	// Arrival and departure: both apps ran, fe0 departed and its process is
	// dead, sw0 ran to the end.
	if len(res.Apps) != 2 {
		t.Fatalf("apps = %d", len(res.Apps))
	}
	sw, fe := res.Apps[0], res.Apps[1]
	if !sw.Arrived || sw.Departed || sw.Beats == 0 {
		t.Fatalf("sw0: %+v", sw)
	}
	if !fe.Arrived || !fe.Departed || fe.Beats == 0 {
		t.Fatalf("fe0: %+v", fe)
	}
	var feProc, swProc = m.Procs()[1], m.Procs()[0]
	if !feProc.Exited() || swProc.Exited() {
		t.Fatal("departure did not kill fe0 (or killed sw0)")
	}
	for _, th := range feProc.Threads {
		if th.Runnable() {
			t.Fatal("departed process still has runnable threads")
		}
	}

	// Hotplug: cpu 7 went offline at 4 s and returned at 12 s.
	if !m.CoreOnline(7) || m.OnlineMask() != hmp.AllCPUs(m.Platform()) {
		t.Fatal("cpu 7 should be back online at the end")
	}
	// DVFS cap: big cluster was capped at level 4 then restored to 8.
	if m.LevelCap(hmp.Big) != 8 {
		t.Fatalf("big cap = %d, want 8 (restored)", m.LevelCap(hmp.Big))
	}
	// MP-HARS partition stayed consistent through all of it.
	if err := res.MP.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if res.EnergyJ <= 0 || res.OverheadUS <= 0 {
		t.Fatalf("energy %v overhead %v", res.EnergyJ, res.OverheadUS)
	}
}

// TestHotplugCapBiteDuringRun pins the mid-run effect of hotplug and caps
// with a per-tick probe: the offline window and the cap window are actually
// observed, and during them cpu 7 holds no runnable thread and the big
// cluster stays at or below the ceiling.
func TestHotplugCapBiteDuringRun(t *testing.T) {
	sc := loadTestdata(t)
	sawOffline, sawCapped := false, false
	_, err := Run(sc, Options{
		Strict: true,
		PerTick: func(m *sim.Machine) {
			if !m.CoreOnline(7) {
				sawOffline = true
				for _, th := range m.Threads() {
					if th.Runnable() && th.Core() == 7 {
						t.Fatalf("t=%d: runnable thread on offline cpu 7", m.Now())
					}
				}
			}
			if m.LevelCap(hmp.Big) == 4 {
				sawCapped = true
				if m.Level(hmp.Big) > 4 {
					t.Fatalf("t=%d: big level %d above cap 4", m.Now(), m.Level(hmp.Big))
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawOffline || !sawCapped {
		t.Fatalf("offline window seen: %t, cap window seen: %t", sawOffline, sawCapped)
	}
}

// TestAdmissionClampsToPlatform pins the admission-time state clamp: a HARS
// app arriving after a big core went offline and the big cluster was capped
// starts inside the live platform, so its manager's first reconcile has
// nothing to move. Started from the unclamped maximum state instead, the
// manager would claim the offline core and re-apply its schedule on the
// next tick, migrating threads.
func TestAdmissionClampsToPlatform(t *testing.T) {
	off := false
	const capLevel = 3
	sc := &Scenario{
		Name: "admit-clamp", Manager: ManagerHARSE, DurationMS: 1000,
		Apps: []AppSpec{{Name: "sw", Bench: "SW", Threads: 8, StartMS: 500}},
		Events: []Event{
			{AtMS: 100, Kind: KindHotplug, CPU: 7, Online: &off},
			{AtMS: 100, Kind: KindDVFSCap, Cluster: "big", MaxLevel: capLevel},
		},
	}
	ticks := 0
	_, err := Run(sc, Options{Strict: true, PerTick: func(m *sim.Machine) {
		if len(m.Threads()) == 0 || ticks == 5 {
			return
		}
		ticks++
		mig := 0
		for _, th := range m.Threads() {
			mig += th.Migrations()
		}
		if mig != 0 {
			t.Fatalf("tick %d after the arrival (t=%d): %d thread migrations, want 0", ticks, m.Now(), mig)
		}
		if lv := m.Level(hmp.Big); lv > capLevel {
			t.Fatalf("tick %d after the arrival (t=%d): big level %d above cap %d", ticks, m.Now(), lv, capLevel)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Fatalf("probe saw %d ticks after the arrival, want 5", ticks)
	}
}

// TestDecodeRejectsOverflowingTimes checks that every millisecond field the
// engine converts to simulated time fails Decode above sim.MaxMS, naming
// the cap, instead of overflowing: a duration_ms of 9.3e15 used to decode
// and run for one sample and 0 J. The cap itself still validates.
func TestDecodeRejectsOverflowingTimes(t *testing.T) {
	const huge = 9_300_000_000_000_000
	base := func() *Scenario {
		return &Scenario{
			Name: "times", Manager: ManagerNone, DurationMS: 1000,
			Nodes: []NodeSpec{{Name: "n0"}, {Name: "n1"}},
			Apps:  []AppSpec{{Name: "app0", Bench: "SW", Threads: 4, TargetFrac: 0.5}},
		}
	}
	cases := map[string]func(sc *Scenario){
		"duration_ms":          func(sc *Scenario) { sc.DurationMS = huge },
		"sample_every_ms":      func(sc *Scenario) { sc.SampleEveryMS = huge },
		"migrate_every_ms":     func(sc *Scenario) { sc.MigrateEveryMS = huge },
		"heartbeat_timeout_ms": func(sc *Scenario) { sc.Faults = &fault.Spec{HeartbeatTimeoutMS: huge} },
		"checkpoint_every_ms":  func(sc *Scenario) { sc.Faults = &fault.Spec{CheckpointEveryMS: huge} },
		"retry_base_ms":        func(sc *Scenario) { sc.Faults = &fault.Spec{RetryBaseMS: huge} },
		"retry_max_ms":         func(sc *Scenario) { sc.Faults = &fault.Spec{RetryMaxMS: huge} },
		"retry_jitter_ms":      func(sc *Scenario) { sc.Faults = &fault.Spec{RetryJitterMS: huge} },
		"crash 0 down_ms": func(sc *Scenario) {
			sc.Faults = &fault.Spec{Crashes: []fault.Crash{{Node: "n1", AtMS: 500, DownMS: huge}}}
		},
		"random down_ms": func(sc *Scenario) {
			sc.Faults = &fault.Spec{Random: &fault.RandomCrashes{RatePerMin: 1, DownMS: huge}}
		},
	}
	decode := func(sc *Scenario) error {
		var buf bytes.Buffer
		if err := sc.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := Decode(&buf)
		return err
	}
	want := fmt.Sprintf("above the %d ms cap", int64(sim.MaxMS))
	for field, set := range cases {
		sc := base()
		set(sc)
		if err := decode(sc); err == nil || !strings.Contains(err.Error(), field) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s = %d: Decode err = %v, want it to name the field and %q", field, int64(huge), err, want)
		}
	}
	sc := base()
	sc.DurationMS = sim.MaxMS
	if err := decode(sc); err != nil {
		t.Errorf("duration_ms at the cap: %v", err)
	}
}

// TestDecodeRejectsOversizedLists pins the node and declared-app caps and
// the total-threads budget: one past each cap fails Decode with the cap
// named, and a document at the cap decodes. Nothing is run.
func TestDecodeRejectsOversizedLists(t *testing.T) {
	decode := func(sc *Scenario) error {
		var buf bytes.Buffer
		if err := sc.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := Decode(&buf)
		return err
	}
	nodes := func(n int) *Scenario {
		sc := &Scenario{
			Name: "nodes", Manager: ManagerNone, DurationMS: 1000,
			Apps: []AppSpec{{Name: "app0", Bench: "SW", Threads: 4, TargetFrac: 0.5}},
		}
		for i := 0; i < n; i++ {
			sc.Nodes = append(sc.Nodes, NodeSpec{Name: fmt.Sprintf("n%d", i)})
		}
		return sc
	}
	apps := func(n int) *Scenario {
		sc := &Scenario{Name: "apps", Manager: ManagerNone, DurationMS: 1000}
		for i := 0; i < n; i++ {
			sc.Apps = append(sc.Apps, AppSpec{Name: fmt.Sprintf("app%d", i), Bench: "SW", Threads: 1})
		}
		return sc
	}
	// n threads: one arrival stream counted at its worst case (64 arrivals,
	// its default cap, of 8 threads, the default), though at 2/s over 1 s
	// it draws about 2, then declared apps of up to 1024 threads.
	threads := func(n int) *Scenario {
		sc := &Scenario{
			Name: "threads", Manager: ManagerNone, DurationMS: 1000,
			Arrivals: []ArrivalStream{{Name: "s", Bench: "SW", Rate: []RateStep{{PerS: 2}}}},
		}
		for n -= maxStreamApps * 8; n > 0; n -= maxAppThreads {
			sc.Apps = append(sc.Apps, AppSpec{Name: fmt.Sprintf("app%d", len(sc.Apps)), Bench: "SW", Threads: min(n, maxAppThreads)})
		}
		return sc
	}
	for _, c := range []struct {
		what string
		cap  int
		spec func(n int) *Scenario
	}{
		{"nodes", maxNodes, nodes},
		{"apps", maxApps, apps},
		{"threads", maxThreads, threads},
	} {
		want := fmt.Sprintf("%d %s above the %d cap", c.cap+1, c.what, c.cap)
		if err := decode(c.spec(c.cap + 1)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%d %s: Decode err = %v, want %q", c.cap+1, c.what, err, want)
		}
		if err := decode(c.spec(c.cap)); err != nil {
			t.Errorf("%d %s, at the cap: %v", c.cap, c.what, err)
		}
	}
}

// TestCalibrationPerDistinctBoard pins the max-rate cache to board values:
// two nodes on equal inline boards, each running one fractional-target
// app, consult the MaxRate override once; on two different boards, twice.
func TestCalibrationPerDistinctBoard(t *testing.T) {
	for _, c := range []struct {
		name  string
		board func() *hmp.Platform
		want  int
	}{
		{"equal boards", littleHeavyPlatform, 1},
		{"different boards", tinyPlatform, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc := &Scenario{
				Name: "calibrate", Manager: ManagerHARSE, DurationMS: 200,
				Nodes: []NodeSpec{
					{Name: "n0", Platform: littleHeavyPlatform()},
					{Name: "n1", Platform: c.board()},
				},
				Apps: []AppSpec{
					{Name: "a0", Bench: "SW", Threads: 4, TargetFrac: 0.5, Node: "n0"},
					{Name: "a1", Bench: "SW", Threads: 4, TargetFrac: 0.5, Node: "n1"},
				},
			}
			calls := 0
			maxRate := func(string, int) float64 { calls++; return 50 }
			if _, err := Run(sc, Options{MaxRate: maxRate, Strict: true}); err != nil {
				t.Fatal(err)
			}
			if calls != c.want {
				t.Fatalf("MaxRate consulted %d times, want %d", calls, c.want)
			}
		})
	}
}
