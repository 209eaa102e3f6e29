package mphars

import (
	"math"
	"sort"

	"repro/internal/gts"
	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/sim"
)

// The CONS-I constants. CONS-I performs no estimation, so it adapts
// often, one small step at a time: every consIAdaptEvery heartbeats
// outside the band. After a performance decrease every application must
// observe consIFreezeBeats heartbeats before the next decrease is allowed
// (the interference-aware pause of §4.1.1). consIScoreBucket quantizes
// performance scores when the ladder is built: configurations within one
// bucket are equivalent, and only the cheapest one is kept.
const (
	consIAdaptEvery  = 1
	consIFreezeBeats = 5
	consIScoreBucket = 0.25
)

type consApp struct {
	proc            *sim.Process
	target          heartbeat.Target
	lastSeen        int64
	adaptationIndex int64
	lastRate        float64
	freeze          int
	trace           []TracePoint
}

// ConsI is the paper's conservative incremental adaptation baseline
// (§4.1.1, evaluated as CONS-I in Figure 5.4): all applications share every
// core and the cluster frequencies under the Linux HMP scheduler, and the
// runtime walks a single list of system configurations sorted by the
// performance score perfScore = C_B·r0·(f_B/f0) + C_L·(f_L/f0), one step per
// adaptation. Decision making is conservative: any unsatisfied application
// may always push the system up; the system steps down only when every
// application overperforms, and a step down pauses adaptation until
// everyone has collected fresh performance data.
type ConsI struct {
	plat    *hmp.Platform
	g       *gts.Scheduler
	configs []hmp.State // the perfScore ladder, ascending
	cur     int
	apps    []*consApp
}

// NewConsI builds the CONS-I runtime on a machine: it installs a GTS placer
// over all cores and starts at the maximum configuration. CONS-I has no
// settings: its adaptation period, freeze and ladder bucket are the
// consI constants.
func NewConsI(m *sim.Machine) *ConsI {
	plat := m.Platform()
	c := &ConsI{
		plat:    plat,
		g:       gts.New(plat),
		configs: buildLadder(plat, consIScoreBucket),
	}
	c.cur = len(c.configs) - 1
	m.SetPlacer(c.g)
	c.applyConfig(m)
	return c
}

// buildLadder enumerates all states, quantizes their performance score, and
// keeps the cheapest representative per bucket, sorted ascending by score.
func buildLadder(plat *hmp.Platform, bucket float64) []hmp.State {
	r0 := plat.R0()
	type entry struct {
		st    hmp.State
		score float64
		cost  float64
	}
	best := map[int64]entry{}
	for _, st := range hmp.AllStates(plat, 1) {
		score := st.PerfScore(plat, r0)
		key := int64(math.Round(score / bucket))
		// Cost proxy: prefer fewer, slower big cores for the same score.
		cost := float64(st.BigCores)*3*(1+plat.FreqScale(hmp.Big, st.BigLevel)) +
			float64(st.LittleCores)*(1+plat.FreqScale(hmp.Little, st.LittleLevel))
		e, ok := best[key]
		if !ok || cost < e.cost || (cost == e.cost && lessState(st, e.st)) {
			best[key] = entry{st: st, score: score, cost: cost}
		}
	}
	entries := make([]entry, 0, len(best))
	for _, e := range best {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].score != entries[j].score {
			return entries[i].score < entries[j].score
		}
		return lessState(entries[i].st, entries[j].st)
	})
	// The top of the ladder must be the true maximum configuration (the
	// baseline start state), regardless of bucket representatives.
	max := hmp.MaxState(plat)
	if entries[len(entries)-1].st != max {
		entries = append(entries, entry{st: max, score: max.PerfScore(plat, r0)})
	}
	out := make([]hmp.State, len(entries))
	for i, e := range entries {
		out[i] = e.st
	}
	return out
}

func lessState(a, b hmp.State) bool {
	if a.BigCores != b.BigCores {
		return a.BigCores < b.BigCores
	}
	if a.LittleCores != b.LittleCores {
		return a.LittleCores < b.LittleCores
	}
	if a.BigLevel != b.BigLevel {
		return a.BigLevel < b.BigLevel
	}
	return a.LittleLevel < b.LittleLevel
}

// Register adds an application with its performance target.
func (c *ConsI) Register(proc *sim.Process, target heartbeat.Target) {
	proc.HB.SetTarget(target)
	c.apps = append(c.apps, &consApp{proc: proc, target: target})
}

// Config returns the current ladder configuration.
func (c *ConsI) Config() hmp.State { return c.configs[c.cur] }

// LadderLen returns the number of rungs on the configuration ladder.
func (c *ConsI) LadderLen() int { return len(c.configs) }

// Trace returns the behaviour trace of the given process.
func (c *ConsI) Trace(proc *sim.Process) []TracePoint {
	for _, a := range c.apps {
		if a.proc == proc {
			return a.trace
		}
	}
	return nil
}

// Tick implements sim.Daemon.
func (c *ConsI) Tick(m *sim.Machine) {
	st := c.configs[c.cur]
	for _, a := range c.apps {
		count := a.proc.HB.Count()
		for a.lastSeen < count {
			a.lastSeen++
			if a.freeze > 0 {
				a.freeze--
			}
		}
		if rec, ok := a.proc.HB.Latest(); ok {
			a.lastRate = rec.WindowRate
			if len(a.trace) == 0 || a.trace[len(a.trace)-1].HBIndex != rec.Index {
				a.trace = append(a.trace, TracePoint{
					Time:        m.Now(),
					HBIndex:     rec.Index,
					HPS:         rec.WindowRate,
					BigCores:    st.BigCores,
					LittleCores: st.LittleCores,
					BigGHz:      float64(c.plat.Clusters[hmp.Big].KHz(st.BigLevel)) / 1e6,
					LittleGHz:   float64(c.plat.Clusters[hmp.Little].KHz(st.LittleLevel)) / 1e6,
				})
			}
		}
	}
	for _, a := range c.apps {
		c.adaptOne(m, a)
	}
}

func (c *ConsI) adaptOne(m *sim.Machine, a *consApp) {
	rec, ok := a.proc.HB.Latest()
	if !ok {
		return
	}
	if rec.Index < a.adaptationIndex+consIAdaptEvery {
		return
	}
	rate := rec.WindowRate
	if !heartbeat.OutsideBand(a.target, rate) {
		return
	}
	a.adaptationIndex = rec.Index

	switch heartbeat.Classify(a.target, rate) {
	case heartbeat.Underperf:
		// No restriction on increasing system performance.
		if c.cur < len(c.configs)-1 {
			c.cur++
			c.applyConfig(m)
		}
	case heartbeat.Overperf:
		// Conservative: decrease only if every other active application
		// also overperforms and nobody is still settling from the last
		// decrease.
		if !c.allOthersOverperf(a) || c.anyFrozen() {
			return
		}
		if c.cur > 0 {
			c.cur--
			c.applyConfig(m)
			for _, o := range c.apps {
				o.freeze = consIFreezeBeats
			}
		}
	}
}

func (c *ConsI) allOthersOverperf(self *consApp) bool {
	for _, o := range c.apps {
		if o == self || o.proc.HB.Count() == 0 {
			continue // applications that have not started beating yet
		}
		if heartbeat.Classify(o.target, o.lastRate) != heartbeat.Overperf {
			return false
		}
	}
	return true
}

func (c *ConsI) anyFrozen() bool {
	for _, a := range c.apps {
		if a.freeze > 0 {
			return true
		}
	}
	return false
}

// applyConfig actuates the current ladder rung: cluster frequencies plus the
// shared global cpuset of the first C_L little and C_B big cores.
func (c *ConsI) applyConfig(m *sim.Machine) {
	st := c.configs[c.cur]
	m.SetLevel(hmp.Big, st.BigLevel)
	m.SetLevel(hmp.Little, st.LittleLevel)
	c.g.SetAllowed(st.Cpuset(c.plat))
}
