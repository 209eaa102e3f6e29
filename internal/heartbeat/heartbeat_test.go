package heartbeat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBeatRates(t *testing.T) {
	m := NewMonitor("app", 4)
	// One beat every 0.5 s → 2 beats/s.
	for i := 0; i < 10; i++ {
		m.Beat(Time(i) * Second / 2)
	}
	r, ok := m.Latest()
	if !ok {
		t.Fatal("no latest record")
	}
	if r.Index != 9 {
		t.Errorf("Index = %d, want 9", r.Index)
	}
	if math.Abs(r.InstantRate-2) > 1e-9 {
		t.Errorf("InstantRate = %v, want 2", r.InstantRate)
	}
	if math.Abs(r.WindowRate-2) > 1e-9 {
		t.Errorf("WindowRate = %v, want 2", r.WindowRate)
	}
	if math.Abs(r.GlobalRate-2) > 1e-9 {
		t.Errorf("GlobalRate = %v, want 2", r.GlobalRate)
	}
}

func TestWindowRateTracksRecentRate(t *testing.T) {
	m := NewMonitor("app", 4)
	now := Time(0)
	// Slow phase: 1 beat/s.
	for i := 0; i < 8; i++ {
		m.Beat(now)
		now += Second
	}
	// Fast phase: 10 beats/s.
	for i := 0; i < 12; i++ {
		m.Beat(now)
		now += Second / 10
	}
	r, _ := m.Latest()
	if math.Abs(r.WindowRate-10) > 1e-6 {
		t.Errorf("WindowRate = %v, want 10 (window must forget slow phase)", r.WindowRate)
	}
	if r.GlobalRate >= 10 {
		t.Errorf("GlobalRate = %v, should be dragged down by slow phase", r.GlobalRate)
	}
}

func TestFirstBeatHasZeroRates(t *testing.T) {
	m := NewMonitor("app", 4)
	r := m.Beat(123)
	if r.Index != 0 || r.InstantRate != 0 || r.WindowRate != 0 || r.GlobalRate != 0 {
		t.Errorf("first beat record = %+v, want zero rates", r)
	}
}

func TestRateOver(t *testing.T) {
	m := NewMonitor("app", 2)
	for i := 0; i < 10; i++ {
		m.Beat(Time(i) * Second) // 1 beat/s at t = 0..9 s
	}
	if got := m.RateOver(0, 10*Second); math.Abs(got-1) > 1e-9 {
		t.Errorf("RateOver(0,10s) = %v, want 1", got)
	}
	if got := m.RateOver(5*Second, 10*Second); math.Abs(got-1) > 1e-9 {
		t.Errorf("RateOver(5s,10s) = %v, want 1", got)
	}
	if got := m.RateOver(100*Second, 200*Second); got != 0 {
		t.Errorf("RateOver with no beats = %v, want 0", got)
	}
	if got := m.RateOver(5*Second, 5*Second); got != 0 {
		t.Errorf("RateOver of empty span = %v, want 0", got)
	}
}

func TestAccessors(t *testing.T) {
	m := NewMonitor("bench", 1) // window raised to 2
	if m.Window() != 2 {
		t.Errorf("Window = %d, want 2", m.Window())
	}
	if m.Name() != "bench" {
		t.Errorf("Name = %q", m.Name())
	}
	if _, ok := m.Latest(); ok {
		t.Error("Latest on empty monitor should be !ok")
	}
	m.Beat(0)
	m.Beat(Second)
	if m.Count() != 2 {
		t.Errorf("Count = %d, want 2", m.Count())
	}
	recs := m.Records()
	if len(recs) != 2 || recs[1].Index != 1 {
		t.Fatalf("Records = %+v, want two beats indexed 0 and 1", recs)
	}
	recs[0].Index = 99
	if m.Records()[0].Index == 99 {
		t.Error("Records must return a copy")
	}
}

// TestCloneDiverges pins Clone's shared log: after the clone, beats on
// either monitor must stay out of the other's history, even though the
// original's log has spare capacity the clone could otherwise write into.
func TestCloneDiverges(t *testing.T) {
	orig := NewMonitor("app", 3)
	for i := Time(0); i < 5; i++ {
		orig.Beat(i * Second)
	}
	clone := orig.Clone()
	for i := Time(5); i < 9; i++ {
		orig.Beat(i * Second)         // one beat a second
		clone.Beat(i*Second + Second) // one second behind the original
		clone.Beat(i*Second + Second + Second/2)
	}
	wantTimes := func(name string, m *Monitor, want []Time) {
		t.Helper()
		recs := m.Records()
		if len(recs) != len(want) {
			t.Fatalf("%s holds %d beats, want %d", name, len(recs), len(want))
		}
		for i, r := range recs {
			if r.Index != int64(i) || r.Time != want[i] {
				t.Fatalf("%s beat %d = {index %d, time %d}, want {index %d, time %d}",
					name, i, r.Index, r.Time, i, want[i])
			}
		}
	}
	prefix := []Time{0, Second, 2 * Second, 3 * Second, 4 * Second}
	origWant := append(append([]Time(nil), prefix...), 5*Second, 6*Second, 7*Second, 8*Second)
	cloneWant := append([]Time(nil), prefix...)
	for i := Time(5); i < 9; i++ {
		cloneWant = append(cloneWant, i*Second+Second, i*Second+Second+Second/2)
	}
	wantTimes("original", orig, origWant)
	wantTimes("clone", clone, cloneWant)
	if r, _ := orig.Latest(); r.WindowRate != 1 {
		t.Errorf("original window rate %v, want 1 beat/s", r.WindowRate)
	}
}

func TestTarget(t *testing.T) {
	tg := TargetAround(10, 0.5, 0.05)
	if math.Abs(tg.Avg-5) > 1e-9 || math.Abs(tg.Min-4.5) > 1e-9 || math.Abs(tg.Max-5.5) > 1e-9 {
		t.Fatalf("TargetAround = %+v", tg)
	}
	if math.Abs(tg.Band()-0.5) > 1e-9 {
		t.Errorf("Band = %v, want 0.5", tg.Band())
	}
	if !tg.Valid() {
		t.Error("target should be valid")
	}
	if (Target{Min: 2, Avg: 1, Max: 3}).Valid() {
		t.Error("inverted target should be invalid")
	}
	if (Target{}).Valid() {
		t.Error("zero target should be invalid")
	}
}

func TestSetTarget(t *testing.T) {
	m := NewMonitor("a", 4)
	tg := Target{Min: 1, Avg: 2, Max: 3}
	m.SetTarget(tg)
	if m.Target() != tg {
		t.Error("SetTarget/Target round trip failed")
	}
}

func TestNormalizedPerf(t *testing.T) {
	tg := Target{Min: 4.5, Avg: 5, Max: 5.5}
	if got := NormalizedPerf(tg, 5); got != 1 {
		t.Errorf("at target: %v, want 1", got)
	}
	if got := NormalizedPerf(tg, 10); got != 1 {
		t.Errorf("overperformance must not earn credit: %v", got)
	}
	if got := NormalizedPerf(tg, 2.5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("half target: %v, want 0.5", got)
	}
	if got := NormalizedPerf(Target{}, 3); got != 0 {
		t.Errorf("zero target: %v, want 0", got)
	}
}

func TestClassifyAndOutsideBand(t *testing.T) {
	tg := Target{Min: 4.5, Avg: 5, Max: 5.5}
	cases := []struct {
		rate float64
		want Satisfaction
		out  bool
	}{
		{4.0, Underperf, true},
		{4.5, Achieve, false},
		{5.0, Achieve, false},
		{5.5, Achieve, false},
		{6.0, Overperf, true},
		{5.49, Achieve, false},
	}
	for _, c := range cases {
		if got := Classify(tg, c.rate); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.rate, got, c.want)
		}
		if got := OutsideBand(tg, c.rate); got != c.out {
			t.Errorf("OutsideBand(%v) = %v, want %v", c.rate, got, c.out)
		}
	}
}

func TestSatisfactionString(t *testing.T) {
	if Underperf.String() != "Underperf" || Achieve.String() != "Achieve" || Overperf.String() != "Overperf" {
		t.Error("Satisfaction strings wrong")
	}
	if Satisfaction(42).String() == "" {
		t.Error("unknown satisfaction should render")
	}
}

// TestRatesNonNegativeAndMonotoneIndex is a property test over random beat
// schedules: indices are sequential and rates non-negative.
func TestRatesNonNegativeAndMonotoneIndex(t *testing.T) {
	f := func(gaps []uint16) bool {
		m := NewMonitor("p", 3)
		now := Time(0)
		for i, g := range gaps {
			now += Time(g) + 1 // strictly increasing time
			r := m.Beat(now)
			if r.Index != int64(i) {
				return false
			}
			if r.InstantRate < 0 || r.WindowRate < 0 || r.GlobalRate < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSimultaneousBeatsYieldInfiniteRate(t *testing.T) {
	m := NewMonitor("p", 2)
	m.Beat(5)
	r := m.Beat(5)
	if !math.IsInf(r.InstantRate, 1) {
		t.Errorf("InstantRate for zero gap = %v, want +Inf", r.InstantRate)
	}
}
