package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/thermal"
)

func TestOccurrences(t *testing.T) {
	oneShot := &Event{AtMS: 700}
	if got := oneShot.Occurrences(3000); !reflect.DeepEqual(got, []int64{700}) {
		t.Fatalf("one-shot occurrences = %v", got)
	}
	rep := &Event{AtMS: 1000, EveryMS: 500}
	if got := rep.Occurrences(3000); !reflect.DeepEqual(got, []int64{1000, 1500, 2000, 2500, 3000}) {
		t.Fatalf("repeating occurrences = %v", got)
	}
	capped := &Event{AtMS: 1000, EveryMS: 500, Repeat: 2}
	if got := capped.Occurrences(3000); !reflect.DeepEqual(got, []int64{1000, 1500}) {
		t.Fatalf("repeat-capped occurrences = %v", got)
	}
	edge := &Event{AtMS: 3000, EveryMS: 500}
	if got := edge.Occurrences(3000); !reflect.DeepEqual(got, []int64{3000}) {
		t.Fatalf("edge occurrences = %v", got)
	}
}

func TestPeriodicValidation(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{
			Manager:    ManagerNone,
			DurationMS: 10000,
			Apps:       []AppSpec{{Name: "a", Bench: "SW"}},
		}
	}
	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{"negative every_ms", Event{Kind: KindPhase, App: "a", Scale: 1, EveryMS: -5}, "negative every_ms"},
		{"negative repeat", Event{Kind: KindPhase, App: "a", Scale: 1, Repeat: -1}, "negative repeat"},
		{"repeat without every", Event{Kind: KindPhase, App: "a", Scale: 1, Repeat: 3}, "repeat without every_ms"},
	}
	for _, c := range cases {
		sc := base()
		sc.Events = []Event{c.ev}
		err := sc.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}

	// Occurrence explosion is rejected, not materialized.
	sc := base()
	sc.DurationMS = 1_000_000
	sc.Events = []Event{{Kind: KindPhase, App: "a", Scale: 1, AtMS: 0, EveryMS: 1}}
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "occurrences") {
		t.Fatalf("explosion err = %v", err)
	}
	// The same period with a bounded repeat is fine.
	sc.Events[0].Repeat = 100
	if err := sc.Validate(); err != nil {
		t.Fatalf("bounded repeat rejected: %v", err)
	}

	// An extreme duration/period pair must saturate the occurrence count
	// instead of overflowing it — for a hotplug event the stranding replay
	// would otherwise materialize a negative-capacity slice and panic. The
	// pair uses the longest duration that validates, sim.MaxMS; longer
	// ones fail on the cap (TestDecodeRejectsOverflowingTimes).
	off := false
	for _, ev := range []Event{
		{Kind: KindPhase, App: "a", Scale: 1, AtMS: 0, EveryMS: 1},
		{Kind: KindHotplug, CPU: 7, Online: &off, AtMS: 0, EveryMS: 1},
	} {
		sc = base()
		sc.DurationMS = sim.MaxMS
		sc.Events = []Event{ev}
		if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "occurrences") {
			t.Fatalf("overflow-range %s event: err = %v", ev.Kind, err)
		}
	}

	// A repeating hotplug event participates in the stranding replay: a
	// second event that brings the only other core cluster down between two
	// occurrences must still be caught.
	sc = base()
	sc.Events = []Event{
		{Kind: KindHotplug, CPU: 0, Online: &off, AtMS: 100},
		{Kind: KindHotplug, CPU: 1, Online: &off, AtMS: 100},
		{Kind: KindHotplug, CPU: 2, Online: &off, AtMS: 100},
		{Kind: KindHotplug, CPU: 3, Online: &off, AtMS: 100},
		{Kind: KindHotplug, CPU: 4, Online: &off, AtMS: 100},
		{Kind: KindHotplug, CPU: 5, Online: &off, AtMS: 100},
		{Kind: KindHotplug, CPU: 6, Online: &off, AtMS: 100},
		{Kind: KindHotplug, CPU: 7, Online: &off, AtMS: 3000, EveryMS: 1000},
	}
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "last core offline") {
		t.Fatalf("stranding with repeating hotplug: err = %v", err)
	}
}

// TestPeriodicEquivalentToUnrolled pins the expansion semantics: a repeating
// event must drive the machine through exactly the trajectory of the same
// scenario with the occurrences written out by hand.
func TestPeriodicEquivalentToUnrolled(t *testing.T) {
	rolled := &Scenario{
		Name:       "pulse",
		Manager:    ManagerHARSE,
		DurationMS: 6000,
		AdaptEvery: 2,
		Apps: []AppSpec{{
			Name: "sw", Bench: "SW", Threads: 8,
			Target: &TargetSpec{Min: 4.0, Avg: 5.0, Max: 6.0},
		}},
		Events: []Event{{AtMS: 1000, Kind: KindPhase, App: "sw", Scale: 1.5, EveryMS: 1500, Repeat: 3}},
	}
	unrolled := &Scenario{
		Name:       "pulse",
		Manager:    ManagerHARSE,
		DurationMS: 6000,
		AdaptEvery: 2,
		Apps: []AppSpec{{
			Name: "sw", Bench: "SW", Threads: 8,
			Target: &TargetSpec{Min: 4.0, Avg: 5.0, Max: 6.0},
		}},
		Events: []Event{
			{AtMS: 1000, Kind: KindPhase, App: "sw", Scale: 1.5},
			{AtMS: 2500, Kind: KindPhase, App: "sw", Scale: 1.5},
			{AtMS: 4000, Kind: KindPhase, App: "sw", Scale: 1.5},
		},
	}
	a, err := Run(rolled, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(unrolled, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceDigest != b.TraceDigest {
		t.Fatalf("rolled digest %016x != unrolled %016x", a.TraceDigest, b.TraceDigest)
	}
}

func TestThermalScenarioValidation(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{
			Manager:    ManagerNone,
			DurationMS: 5000,
			Apps:       []AppSpec{{Name: "a", Bench: "SW"}},
			Thermal:    &thermal.Spec{Enabled: true},
		}
	}
	// dvfs_cap conflicts with the enabled governor.
	sc := base()
	sc.Events = []Event{{AtMS: 100, Kind: KindDVFSCap, Cluster: "big", MaxLevel: 3}}
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "dvfs_cap") {
		t.Fatalf("cap-with-governor err = %v", err)
	}
	// ...but is fine when the block is present yet disabled.
	sc.Thermal.Enabled = false
	if err := sc.Validate(); err != nil {
		t.Fatalf("cap with disabled thermal rejected: %v", err)
	}
	// Malformed thermal blocks are rejected through scenario validation.
	sc = base()
	sc.Thermal.TripC = 30 // below default release 60
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "thresholds") {
		t.Fatalf("bad thresholds err = %v", err)
	}
	// min_level outside the little grid (max level 5 on the default
	// platform) is rejected even though the big grid would allow it.
	sc = base()
	sc.Thermal.MinLevel = 7
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "min_level") {
		t.Fatalf("min_level err = %v", err)
	}
	// JSON round trip keeps the thermal block.
	sc = base()
	var buf strings.Builder
	if err := sc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	again, err := Decode(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, again) {
		t.Fatalf("thermal round trip changed the scenario:\nfirst:  %+v\nsecond: %+v", sc, again)
	}
}
