package mphars

import (
	"testing"

	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/power"
	"repro/internal/sim"
)

func TestLadderSortedAndEndsAtMax(t *testing.T) {
	plat := hmp.Default()
	ladder := buildLadder(plat, consIScoreBucket)
	if len(ladder) < 20 {
		t.Fatalf("ladder too short: %d", len(ladder))
	}
	r0 := plat.R0()
	for i := 1; i < len(ladder); i++ {
		if ladder[i].PerfScore(plat, r0) < ladder[i-1].PerfScore(plat, r0) {
			t.Fatalf("ladder not ascending at %d", i)
		}
	}
	if ladder[len(ladder)-1] != hmp.MaxState(plat) {
		t.Fatalf("ladder top = %+v, want max state", ladder[len(ladder)-1])
	}
	for _, st := range ladder {
		if !st.Valid(plat) {
			t.Fatalf("invalid ladder state %+v", st)
		}
	}
}

func TestConsIDescendsWhenAllOverperform(t *testing.T) {
	plat := hmp.Default()
	gt := power.DefaultGroundTruth(plat)
	m := sim.New(plat, sim.Config{Power: gt})
	c := NewConsI(m)
	pA := m.Spawn("a", steady("a", 0.5), 10)
	pB := m.Spawn("b", steady("b", 0.5), 10)
	// Targets far below max throughput: both overperform at the start.
	c.Register(pA, heartbeat.Target{Min: 0.4, Avg: 0.5, Max: 0.6})
	c.Register(pB, heartbeat.Target{Min: 0.4, Avg: 0.5, Max: 0.6})
	m.AddDaemon(c)
	startScore := c.Config().PerfScore(plat, plat.R0())
	m.Run(120 * sim.Second)
	endScore := c.Config().PerfScore(plat, plat.R0())
	if endScore >= startScore {
		t.Fatalf("CONS-I never descended: %.2f → %.2f", startScore, endScore)
	}
	// Rates must still be at or above the minimum (conservative model).
	if r := pA.HB.RateOver(80*sim.Second, m.Now()); r < 0.3 {
		t.Errorf("app a rate collapsed to %v", r)
	}
}

func TestConsIBlockedByUnsatisfiedApp(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	c := NewConsI(m)
	pA := m.Spawn("a", steady("a", 0.5), 10)
	pB := m.Spawn("b", steady("b", 0.5), 10)
	// App a overperforms; app b can never reach its target: the system must
	// not descend (and should climb or stay at the top).
	c.Register(pA, heartbeat.Target{Min: 0.4, Avg: 0.5, Max: 0.6})
	c.Register(pB, heartbeat.Target{Min: 1e5, Avg: 2e5, Max: 3e5})
	m.AddDaemon(c)
	top := c.LadderLen() - 1
	m.Run(60 * sim.Second)
	if got := c.cur; got != top {
		t.Fatalf("CONS-I descended to rung %d despite an unsatisfied app (top %d)", got, top)
	}
}

func TestConsIIgnoresSilentApps(t *testing.T) {
	// An app that never beats (startup phase) must not block descent — the
	// paper's case-6 observation.
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	c := NewConsI(m)
	pA := m.Spawn("a", steady("a", 0.5), 10)
	silent := &silentProg{}
	pB := m.Spawn("silent", silent, 10)
	c.Register(pA, heartbeat.Target{Min: 0.4, Avg: 0.5, Max: 0.6})
	c.Register(pB, heartbeat.Target{Min: 1, Avg: 2, Max: 3})
	m.AddDaemon(c)
	start := c.cur
	m.Run(60 * sim.Second)
	if c.cur >= start {
		t.Fatal("CONS-I blocked by an app that never emitted heartbeats")
	}
}

// silentProg burns CPU but never emits heartbeats.
type silentProg struct{}

func (s *silentProg) Name() string         { return "silent" }
func (s *silentProg) NumThreads() int      { return 2 }
func (s *silentProg) Start(p *sim.Process) { p.SetWork(0, 1); p.SetWork(1, 1) }
func (s *silentProg) UnitDone(p *sim.Process, local int) {
	p.SetWork(local, 1)
}
func (s *silentProg) SpeedFactor(local int, k hmp.ClusterKind) float64 { return 1 }

// TestConsIFreezePausesDescent runs one app far above its band, so CONS-I
// steps down again as soon as the freeze allows: it must descend several
// times, each descent at least consIFreezeBeats beats after the last.
func TestConsIFreezePausesDescent(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	c := NewConsI(m)
	pA := m.Spawn("a", steady("a", 0.5), 10)
	c.Register(pA, heartbeat.Target{Min: 0.4, Avg: 0.5, Max: 0.6})
	m.AddDaemon(c)
	d := &descentLog{c: c, proc: pA, rung: c.cur}
	m.AddDaemon(d) // after c: sees each tick's rung change
	m.Run(120 * sim.Second)
	if len(d.beats) < 3 {
		t.Fatalf("CONS-I descended %d times in 120 s, want at least 3", len(d.beats))
	}
	for i := 1; i < len(d.beats); i++ {
		if gap := d.beats[i] - d.beats[i-1]; gap < consIFreezeBeats {
			t.Fatalf("descent %d came %d beats after the previous one, want at least %d (descents at beats %v)",
				i, gap, consIFreezeBeats, d.beats)
		}
	}
}

// descentLog is a daemon that records the beat count of proc at every
// tick on which CONS-I's rung fell.
type descentLog struct {
	c     *ConsI
	proc  *sim.Process
	rung  int
	beats []int64
}

func (d *descentLog) Tick(*sim.Machine) {
	if d.c.cur < d.rung {
		d.beats = append(d.beats, d.proc.HB.Count())
	}
	d.rung = d.c.cur
}

func TestConsITraceRecorded(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	c := NewConsI(m)
	pA := m.Spawn("a", steady("a", 0.5), 10)
	c.Register(pA, heartbeat.Target{Min: 0.4, Avg: 0.5, Max: 0.6})
	m.AddDaemon(c)
	m.Run(20 * sim.Second)
	tr := c.Trace(pA)
	if len(tr) == 0 {
		t.Fatal("no trace recorded")
	}
	last := tr[len(tr)-1]
	if last.BigGHz <= 0 || last.LittleGHz <= 0 {
		t.Error("trace has no frequencies")
	}
	if c.Trace(m.Spawn("ghost", steady("g", 1), 4)) != nil {
		t.Error("trace of unregistered proc should be nil")
	}
}
