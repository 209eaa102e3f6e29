package core

import (
	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/sim"
)

// Version selects one of the paper's HARS variants.
type Version int

// The evaluated HARS versions.
const (
	// HARSI is the incremental search version: m = 1, n = 0, d = 1 when the
	// application overperforms, m = 0, n = 1, d = 1 when it underperforms.
	HARSI Version = iota
	// HARSE is the exhaustive search version (m = n = 4, d = 7) with the
	// chunk-based scheduler.
	HARSE
	// HARSEI is HARS-E with the interleaving scheduler.
	HARSEI
)

// String names the version as in the paper's figures.
func (v Version) String() string {
	switch v {
	case HARSI:
		return "HARS-I"
	case HARSE:
		return "HARS-E"
	case HARSEI:
		return "HARS-EI"
	}
	return "HARS-?"
}

// Config tunes the runtime manager.
type Config struct {
	Version Version

	// AdaptEvery is the adaptation period in heartbeats (isAdaptPeriod of
	// Algorithm 1). Default 10.
	AdaptEvery int64

	// Params overrides the search parameters; zero means "use the
	// version's defaults". Figure 5.3 sweeps D with M = N = 4.
	Params SearchParams

	// Scheduler overrides the version's thread scheduler when non-nil.
	Scheduler *SchedulerKind

	// InitState is the state the manager starts from; zero means the
	// platform maximum (the baseline state).
	InitState *hmp.State

	// OverheadCPU is the CPU charged with the runtime's own overhead
	// (PollOverhead and SearchOverhead).
	OverheadCPU int

	// The §3.1.4 extensions, all disabled by default (paper behaviour):

	// Predictor replaces the naive "same workload as last period" model
	// with a smarter workload predictor (e.g. &KalmanPredictor{}).
	Predictor WorkloadPredictor

	// LearnRatio enables online estimation of the application's true
	// big/little performance ratio, replacing the fixed r0.
	LearnRatio bool

	// SearchFn replaces Algorithm 2 with an alternative search (e.g.
	// NewTabuSearch(8)); nil keeps the paper's Search.
	SearchFn SearchFunc
}

func (c Config) withDefaults() Config {
	if c.AdaptEvery <= 0 {
		c.AdaptEvery = 10
	}
	return c
}

// The overhead model: the CPU time a user-level runtime burns, charged to
// its manager's OverheadCPU. HARS (Manager) and MP-HARS charge the same
// costs: PollOverhead every simulator tick for the heartbeat-polling loop,
// and SearchOverhead for each search.
const (
	PollOverhead      = 2 * sim.Microsecond   // per simulator tick
	searchOverhead    = 500 * sim.Microsecond // per search invocation
	candidateOverhead = 150 * sim.Microsecond // per state a search explores
)

// SearchOverhead is the CPU time of one search that explored the given
// number of candidate states.
func SearchOverhead(explored int) sim.Time {
	return searchOverhead + sim.Time(explored)*candidateOverhead
}

// Params returns the version's search parameters (m, n, d) for one
// adaptation, following the paper's per-version rules: HARS-I steps one
// core count at distance 1 (m = 1 when the application overperforms,
// n = 1 when it underperforms), HARS-E and HARS-EI search m = n = 4, d = 7.
func (v Version) Params(overperforming bool) SearchParams {
	if v != HARSI {
		return SearchParams{M: 4, N: 4, D: 7}
	}
	if overperforming {
		return SearchParams{M: 1, N: 0, D: 1}
	}
	return SearchParams{M: 0, N: 1, D: 1}
}

// params returns the search parameters for this adaptation: the explicit
// Params override, or the version's own.
func (c Config) params(overperforming bool) SearchParams {
	if c.Params != (SearchParams{}) {
		return c.Params
	}
	return c.Version.Params(overperforming)
}

// scheduler returns the thread scheduler for the configured version.
func (c Config) scheduler() SchedulerKind {
	if c.Scheduler != nil {
		return *c.Scheduler
	}
	if c.Version == HARSEI {
		return Interleaved
	}
	return Chunk
}

// Decision records one adaptation for tracing (behaviour graphs).
type Decision struct {
	Time     sim.Time
	HBIndex  int64
	Rate     float64
	From, To hmp.State
	Explored int
}

// Manager is HARS's runtime manager (Algorithm 1), run as a machine daemon.
// It owns the whole machine: single-application HARS assumes the target
// self-adaptive application is the only managed workload.
type Manager struct {
	cfg     Config
	proc    *sim.Process
	est     Estimators
	target  heartbeat.Target
	state   hmp.State
	applied Assignment // the thread assignment currently in force
	// appliedCores are the global CPUs the current schedule is affine to;
	// reconcilePlatform re-applies when any of them goes offline.
	appliedCores []int
	learner      *RatioLearner

	lastSeen      int64
	lastAdapt     int64
	decisions     []Decision
	exploredTotal int
	searches      int

	// OnDecision, when set, observes every adaptation (for behaviour
	// graphs).
	OnDecision func(Decision)
}

// NewManager attaches a HARS runtime manager to a process: it applies the
// initial system state and thread schedule immediately (Algorithm 1 lines
// 2–3) and adapts on heartbeats once registered as a daemon.
//
// A process arriving with heartbeat history — restored on this machine by
// a work-conserving migration — attaches without state loss: the carried
// beats count as already observed and the first adaptation waits a full
// period past the move, so the manager never acts on rates measured on
// another node.
//
// set holds the estimators of the machine's board (see EstimatorSet): the
// manager takes the memo table for its application's thread count from
// it, so managers built from one set share their tables.
func NewManager(m *sim.Machine, proc *sim.Process, set *EstimatorSet, target heartbeat.Target, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	mgr := &Manager{
		cfg:    cfg,
		proc:   proc,
		est:    set.For(len(proc.Threads)),
		target: target,
	}
	if count := proc.HB.Count(); count > 0 {
		mgr.lastSeen = count
		if rec, ok := proc.HB.Latest(); ok {
			mgr.lastAdapt = rec.Index
		}
	}
	if cfg.LearnRatio {
		mgr.learner = NewRatioLearner(m.Platform(), len(proc.Threads))
	}
	st := hmp.MaxState(m.Platform())
	if cfg.InitState != nil {
		st = *cfg.InitState
	}
	mgr.state = st
	mgr.apply(m, st)
	proc.HB.SetTarget(target)
	return mgr
}

// State returns the manager's current system state.
func (mgr *Manager) State() hmp.State { return mgr.state }

// Target returns the manager's performance target.
func (mgr *Manager) Target() heartbeat.Target { return mgr.target }

// SetTarget replaces the manager's performance target mid-run (a scenario
// "target" event); the next adaptation opportunity uses the new band.
func (mgr *Manager) SetTarget(t heartbeat.Target) {
	mgr.target = t
	mgr.proc.HB.SetTarget(t)
}

// Decisions returns the adaptation trace.
func (mgr *Manager) Decisions() []Decision { return mgr.decisions }

// Searches returns how many times the search function ran.
func (mgr *Manager) Searches() int { return mgr.searches }

// ExploredTotal returns the total number of candidate states evaluated.
func (mgr *Manager) ExploredTotal() int { return mgr.exploredTotal }

// LearnedRatio returns the online big/little ratio estimate (0 when ratio
// learning is disabled).
func (mgr *Manager) LearnedRatio() float64 {
	if mgr.learner == nil {
		return 0
	}
	return mgr.learner.Ratio()
}

// SteadyBegin implements sim.SteadyDaemon. Once the managed process has
// exited every Tick is the no-op early return, so the manager declares a
// zero entry. Otherwise, inside a certified window no unit completes, so no
// heartbeat can arrive and Tick reduces to its polling charge plus a
// reconcilePlatform that is a pure no-op on the frozen platform. The
// declared entry is exactly that per-tick charge; the window is accepted
// only when the platform already fits the manager's state (so
// reconcilePlatform would not re-apply) and no unconsumed heartbeat is
// pending (Tick would process it). No per-tick internal state advances, so
// no Ticker is declared.
func (mgr *Manager) SteadyBegin(m *sim.Machine) (sim.SteadyEntry, bool) {
	if mgr.proc.Exited() {
		return sim.SteadyEntry{}, true
	}
	if !mgr.platformSettled(m) || mgr.proc.HB.Count() != mgr.lastSeen {
		return sim.SteadyEntry{}, false
	}
	return sim.SteadyEntry{ChargeCPU: mgr.cfg.OverheadCPU, Charge: PollOverhead}, true
}

// platformSettled reports whether reconcilePlatform would be a pure no-op:
// the clamped state equals the current one and every core of the applied
// schedule is still online.
func (mgr *Manager) platformSettled(m *sim.Machine) bool {
	return MachineBounds(m).Clamp(mgr.state) == mgr.state && !mgr.appliedCoreOffline(m)
}

// appliedCoreOffline reports whether any core the current schedule is
// affine to has gone offline.
func (mgr *Manager) appliedCoreOffline(m *sim.Machine) bool {
	for _, cpu := range mgr.appliedCores {
		if !m.CoreOnline(cpu) {
			return true
		}
	}
	return false
}

// Tick implements sim.Daemon: the main function of Algorithm 1.
func (mgr *Manager) Tick(m *sim.Machine) {
	if mgr.proc.Exited() {
		return
	}
	m.ChargeOverhead(mgr.cfg.OverheadCPU, PollOverhead)
	mgr.reconcilePlatform(m)
	count := mgr.proc.HB.Count()
	if count == mgr.lastSeen {
		return
	}
	mgr.lastSeen = count
	rec, ok := mgr.proc.HB.Latest()
	if !ok {
		return
	}
	rate := rec.WindowRate
	// Online extensions observe every heartbeat (no-ops in the paper's
	// default configuration).
	if mgr.learner != nil {
		mgr.learner.Observe(mgr.state, mgr.applied, rate)
		mgr.est.Perf.R0 = mgr.learner.Ratio()
	}
	baseRate := rate
	if mgr.cfg.Predictor != nil {
		if tput := mgr.est.Perf.EvaluateCached(mgr.state).Throughput; tput > 0 && rate > 0 {
			mgr.cfg.Predictor.Observe(tput / rate)
			if w := mgr.cfg.Predictor.Predict(); w > 0 {
				baseRate = tput / w
			}
		}
	}
	// isAdaptPeriod: one adaptation opportunity every AdaptEvery beats.
	if rec.Index < mgr.lastAdapt+mgr.cfg.AdaptEvery {
		return
	}
	if !heartbeat.OutsideBand(mgr.target, rate) {
		return
	}
	mgr.lastAdapt = rec.Index
	over := rate > mgr.target.Avg
	prm := mgr.cfg.params(over)
	searchFn := mgr.cfg.SearchFn
	if searchFn == nil {
		searchFn = Search
	}
	b := MachineBounds(m)
	if b.MaxBigCores+b.MaxLittleCores == 0 {
		return // the whole platform is offline; nothing to adapt
	}
	res := searchFn(mgr.est, mgr.state, baseRate, mgr.target, prm, b)
	mgr.searches++
	mgr.exploredTotal += res.Explored
	m.ChargeOverhead(mgr.cfg.OverheadCPU, SearchOverhead(res.Explored))

	d := Decision{
		Time:     m.Now(),
		HBIndex:  rec.Index,
		Rate:     rate,
		From:     mgr.state,
		To:       res.State,
		Explored: res.Explored,
	}
	mgr.decisions = append(mgr.decisions, d)
	if mgr.OnDecision != nil {
		mgr.OnDecision(d)
	}
	if res.State != mgr.state {
		mgr.state = res.State
		mgr.apply(m, res.State)
	}
}

// apply is setSysStateAndScheduleThreads: DVFS plus thread scheduling.
func (mgr *Manager) apply(m *sim.Machine, st hmp.State) {
	m.SetLevel(hmp.Big, st.BigLevel)
	m.SetLevel(hmp.Little, st.LittleLevel)
	ev := mgr.est.Perf.EvaluateCached(st)
	mgr.applied = ev.Assignment
	big := OnlineCores(m, hmp.Big, st.BigCores)
	little := OnlineCores(m, hmp.Little, st.LittleCores)
	mgr.appliedCores = append(mgr.appliedCores[:0], big...)
	mgr.appliedCores = append(mgr.appliedCores, little...)
	ApplySchedule(mgr.proc, ev.Assignment, mgr.cfg.scheduler(), big, little)
}

// MachineBounds returns the search bounds implied by the machine's current
// platform condition: online core counts and active DVFS ceilings. With
// every core online and no ceilings installed this equals Unbounded.
func MachineBounds(m *sim.Machine) Bounds {
	return Bounds{
		MaxBigCores:    m.OnlineCount(hmp.Big),
		MaxLittleCores: m.OnlineCount(hmp.Little),
		BigLevelCap:    m.LevelCap(hmp.Big) + 1,
		LittleLevelCap: m.LevelCap(hmp.Little) + 1,
	}
}

// OnlineCores returns the first n online CPUs of cluster k — the hotplug-
// aware variant of DefaultCores.
func OnlineCores(m *sim.Machine, k hmp.ClusterKind, n int) []int {
	p := m.Platform()
	first := p.FirstCPU(k)
	out := make([]int, 0, n)
	for i := 0; i < p.Clusters[k].Cores && len(out) < n; i++ {
		if m.CoreOnline(first + i) {
			out = append(out, first+i)
		}
	}
	return out
}

// reconcilePlatform clamps the manager's state to the machine's current
// platform condition (core hotplug, DVFS ceilings) and re-applies the
// schedule when anything shrank underneath the application. A no-op on an
// unchanged platform.
func (mgr *Manager) reconcilePlatform(m *sim.Machine) {
	cs := MachineBounds(m).Clamp(mgr.state)
	if cs == mgr.state {
		// Counts and caps still fit — but the *specific* cores the current
		// schedule is affine to may have gone offline (with enough siblings
		// still online to keep the counts legal). Re-apply onto online
		// cores so no thread stays stranded on a dead affinity mask.
		if mgr.appliedCoreOffline(m) {
			mgr.apply(m, cs)
		}
		return
	}
	mgr.state = cs
	if cs.TotalCores() > 0 {
		mgr.apply(m, cs)
	}
}
