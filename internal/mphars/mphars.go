// Package mphars implements MP-HARS, the multi-application extension of
// HARS (Chapter 4), plus the CONS-I baseline it is evaluated against.
//
// MP-HARS adds two modules on top of HARS:
//
//   - Resource partitioning: every application owns a private set of cores,
//     tracked with the per-application and per-cluster data structures of
//     Tables 4.1 and 4.2 and allocated by Algorithm 4 (reusing already-owned
//     cores to minimize migrations, growing only into free cores).
//   - Interference-aware adaptation: cluster frequencies are shared, so
//     changing them is governed by the State & Freeze decision table
//     (Table 4.3). A frequency decrease sets a per-application freezing
//     count (in heartbeats) on every application using the cluster; while
//     any count is non-zero the cluster is frozen and cannot be decreased
//     again, giving everyone time to collect reliable performance data at
//     the new operating point.
//
// The runtime manager keeps application data in a linked list and iterates
// it every tick (Algorithm 3), running each application's HARS-style search
// (Algorithm 2) with bounds derived from the free-core count and the
// frequency controllability of each cluster.
package mphars

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/sim"
)

// Version selects the MP-HARS search flavour.
type Version int

// The evaluated MP-HARS versions.
const (
	// MPHARSI explores neighbour states with distance 1 (incremental).
	MPHARSI Version = iota
	// MPHARSE explores exhaustively with m = 4, n = 4, d = 7.
	MPHARSE
)

// String names the version as in Figure 5.4.
func (v Version) String() string {
	switch v {
	case MPHARSI:
		return "MP-HARS-I"
	case MPHARSE:
		return "MP-HARS-E"
	}
	return "MP-HARS-?"
}

// Config tunes the MP-HARS runtime manager.
type Config struct {
	Version Version

	// AdaptEvery is the per-application adaptation period in heartbeats.
	// Default 10.
	AdaptEvery int64

	// OverheadCPU is the CPU charged with the runtime's own overhead, the
	// costs of core's overhead model.
	OverheadCPU int
}

func (c Config) withDefaults() Config {
	if c.AdaptEvery <= 0 {
		c.AdaptEvery = 10
	}
	return c
}

// freezeBeats is the freezing count installed after a frequency decrease:
// the number of heartbeats an affected application must observe before
// the cluster may be decreased again.
const freezeBeats = 10

func (c Config) params() core.SearchParams {
	if c.Version == MPHARSI {
		return core.SearchParams{M: 1, N: 1, D: 1}
	}
	return core.SearchParams{M: 4, N: 4, D: 7}
}

// TracePoint is one heartbeat-indexed sample of an application's state, the
// raw data of the behaviour graphs (Figures 5.5–5.7).
type TracePoint struct {
	Time        sim.Time
	HBIndex     int64
	HPS         float64 // window heartbeat rate
	BigCores    int
	LittleCores int
	BigGHz      float64
	LittleGHz   float64
}

// appNode is the per-application data structure of Table 4.1, kept in the
// manager's linked list.
type appNode struct {
	next *appNode

	proc   *sim.Process
	target heartbeat.Target
	est    core.Estimators

	nprocsB, nprocsL int    // number of assigned big / little cores
	useBCore         []bool // assigned big core indices
	useLCore         []bool // assigned little core indices

	adaptationIndex int64 // heartbeat index of the last adaptation
	lastSeen        int64 // heartbeats observed so far
	lastRate        float64

	freezingCntB int // heartbeats to wait until big frequency is controllable
	freezingCntL int

	decBigCoreCnt    int // cores to free at the next allocation pass
	decLittleCoreCnt int

	trace []TracePoint
}

// clusterData is the per-cluster data structure of Table 4.2.
type clusterData struct {
	frozen   bool
	freeCore []bool // freeCore[i]: core i of the cluster is unallocated
	offline  []bool // offline[i]: core i is hotplugged out (neither free nor owned)
	nfreq    int    // current frequency level
}

// Manager is the MP-HARS runtime manager: a machine daemon multiplexing one
// HARS adaptation loop per registered application over partitioned cores and
// shared cluster frequencies.
type Manager struct {
	cfg      Config
	plat     *hmp.Platform
	head     *appNode
	tail     *appNode
	clusters [hmp.NumClusters]*clusterData

	// set is the board's estimator set. Every registration — an arrival,
	// a migration restore, a recovery — takes its application's
	// estimators from it, so each thread count's memo table is built once
	// per set, not once per manager or per registration.
	set *core.EstimatorSet

	searches      int
	exploredTotal int
}

// New creates an MP-HARS manager for the machine, with both clusters at
// their maximum frequency and all cores free. set holds the estimators of
// the machine's board; managers of machines on one board may share it.
func New(m *sim.Machine, set *core.EstimatorSet, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	plat := m.Platform()
	mgr := &Manager{cfg: cfg, plat: plat, set: set}
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		free := make([]bool, plat.Clusters[k].Cores)
		for i := range free {
			free[i] = true
		}
		mgr.clusters[k] = &clusterData{
			freeCore: free,
			offline:  make([]bool, plat.Clusters[k].Cores),
			nfreq:    plat.Clusters[k].MaxLevel(),
		}
		m.SetLevel(k, plat.Clusters[k].MaxLevel())
	}
	return mgr
}

// Register adds an application with its performance target and an initial
// allocation of initBig big and initLittle little cores (clamped to what is
// free). The threads are scheduled onto the allocation immediately.
//
// A process arriving with heartbeat history — the destination side of a
// work-conserving migration — re-registers without state loss: the manager
// adopts the carried history as already observed (no replay of old beats
// through the freezing counters) and schedules the first adaptation a full
// period after the move, so decisions rest on rates measured here.
func (mgr *Manager) Register(m *sim.Machine, proc *sim.Process, target heartbeat.Target, initBig, initLittle int) *appNode {
	n := &appNode{
		proc:     proc,
		target:   target,
		est:      mgr.set.For(len(proc.Threads)),
		useBCore: make([]bool, mgr.plat.Clusters[hmp.Big].Cores),
		useLCore: make([]bool, mgr.plat.Clusters[hmp.Little].Cores),
	}
	if count := proc.HB.Count(); count > 0 {
		n.lastSeen = count
		if rec, ok := proc.HB.Latest(); ok {
			n.adaptationIndex = rec.Index
			n.lastRate = rec.WindowRate
		}
	}
	proc.HB.SetTarget(target)
	n.nprocsB = min(initBig, mgr.freeCount(hmp.Big))
	n.nprocsL = min(initLittle, mgr.freeCount(hmp.Little))
	if n.nprocsB+n.nprocsL == 0 {
		panic(fmt.Sprintf("mphars: no free cores to register %s", proc.Name))
	}
	if mgr.head == nil {
		mgr.head = n
	} else {
		mgr.tail.next = n
	}
	mgr.tail = n
	mgr.scheduleThreads(m, n)
	return n
}

func (mgr *Manager) freeCount(k hmp.ClusterKind) int {
	c := 0
	for _, f := range mgr.clusters[k].freeCore {
		if f {
			c++
		}
	}
	return c
}

// Apps returns the registered processes in registration order.
func (mgr *Manager) Apps() []*sim.Process {
	var out []*sim.Process
	for n := mgr.head; n != nil; n = n.next {
		out = append(out, n.proc)
	}
	return out
}

// Trace returns the behaviour trace of the given process.
func (mgr *Manager) Trace(proc *sim.Process) []TracePoint {
	for n := mgr.head; n != nil; n = n.next {
		if n.proc == proc {
			return n.trace
		}
	}
	return nil
}

// Allocation returns the current (big, little) core counts of a process.
func (mgr *Manager) Allocation(proc *sim.Process) (big, little int) {
	for n := mgr.head; n != nil; n = n.next {
		if n.proc == proc {
			return n.nprocsB, n.nprocsL
		}
	}
	return 0, 0
}

// Frozen reports the frozen flag of cluster k.
func (mgr *Manager) Frozen(k hmp.ClusterKind) bool { return mgr.clusters[k].frozen }

// FreeCores returns how many cores of cluster k are currently free (online
// and unowned). Scenario engines consult it before registering an arrival.
func (mgr *Manager) FreeCores(k hmp.ClusterKind) int { return mgr.freeCount(k) }

// SetTarget replaces a registered application's performance target mid-run
// (a scenario "target" event). It reports whether the process was found.
func (mgr *Manager) SetTarget(proc *sim.Process, t heartbeat.Target) bool {
	for n := mgr.head; n != nil; n = n.next {
		if n.proc == proc {
			n.target = t
			proc.HB.SetTarget(t)
			return true
		}
	}
	return false
}

// Unregister removes an application from management (a scenario departure):
// its online cores return to the free pool, its freezing counts disappear
// with its node, and later arrivals can reuse the space. The caller
// typically also calls Machine.Kill on the process. It reports whether the
// process was registered.
func (mgr *Manager) Unregister(m *sim.Machine, proc *sim.Process) bool {
	var prev *appNode
	for n := mgr.head; n != nil; prev, n = n, n.next {
		if n.proc != proc {
			continue
		}
		for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
			c := mgr.clusters[k]
			use := n.useLCore
			if k == hmp.Big {
				use = n.useBCore
			}
			for i, u := range use {
				if u && !c.offline[i] {
					c.freeCore[i] = true
				}
				use[i] = false
			}
		}
		if prev == nil {
			mgr.head = n.next
		} else {
			prev.next = n.next
		}
		if mgr.tail == n {
			mgr.tail = prev
		}
		n.next = nil
		n.nprocsB, n.nprocsL = 0, 0
		return true
	}
	return false
}

// Searches returns the total number of search invocations.
func (mgr *Manager) Searches() int { return mgr.searches }

// ReconcilePlatform folds machine hotplug and DVFS-cap changes into the
// ownership tables of Table 4.2: a core that went offline is revoked from
// its owner (or pulled from the free pool) and returns to the free pool when
// it comes back online, and the shared frequency view tracks the machine's
// actual — possibly externally capped — levels. Tick calls this every tick;
// scenario engines may also call it directly after applying hotplug events
// so that registrations in the same tick see a consistent free pool.
func (mgr *Manager) ReconcilePlatform(m *sim.Machine) {
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		c := mgr.clusters[k]
		c.nfreq = m.Level(k)
		for i := range c.offline {
			online := m.CoreOnline(mgr.plat.CPU(k, i))
			switch {
			case !online && !c.offline[i]:
				c.offline[i] = true
				if c.freeCore[i] {
					c.freeCore[i] = false
				} else {
					mgr.revoke(m, k, i)
				}
			case online && c.offline[i]:
				c.offline[i] = false
				c.freeCore[i] = true
			}
		}
	}
}

// revoke strips core i of cluster k from its owning application (the core
// went offline) and reschedules the owner onto its remaining cores.
func (mgr *Manager) revoke(m *sim.Machine, k hmp.ClusterKind, i int) {
	for n := mgr.head; n != nil; n = n.next {
		use := n.useLCore
		if k == hmp.Big {
			use = n.useBCore
		}
		if !use[i] {
			continue
		}
		use[i] = false
		if k == hmp.Big {
			n.nprocsB--
		} else {
			n.nprocsL--
		}
		if n.nprocsB+n.nprocsL == 0 {
			// The application lost its last core: grab any free core so its
			// threads keep running. If none exists the threads stay affine
			// to their departed cores and stall until the platform grows
			// back or another application releases a core.
			if !mgr.grabAnyFree(n) {
				return
			}
		}
		mgr.scheduleThreads(m, n)
		return
	}
}

// grabAnyFree claims one free core (little first: it is the cheap lifeline)
// for an application that lost everything to hotplug.
func (mgr *Manager) grabAnyFree(n *appNode) bool {
	for _, k := range [...]hmp.ClusterKind{hmp.Little, hmp.Big} {
		c := mgr.clusters[k]
		for i, f := range c.freeCore {
			if !f {
				continue
			}
			c.freeCore[i] = false
			if k == hmp.Big {
				n.useBCore[i] = true
				n.nprocsB++
			} else {
				n.useLCore[i] = true
				n.nprocsL++
			}
			return true
		}
	}
	return false
}

// SteadyBegin implements sim.SteadyDaemon: inside a certified steady window
// no unit completes, so no heartbeat arrives and every pass of Tick reduces
// to the polling charge plus same-value rewrites of manager-internal state
// (ReconcilePlatform re-reads unchanged levels and hotplug flags, the
// heartbeat loop re-reads the already-consumed latest record, the frozen
// recompute folds unchanged freezing counts). The window is accepted only
// when each pass is provably in that regime right now — conditions that are
// invariant while completions, platform state, and free cores are frozen.
// Where Tick branches on a predicate, SteadyBegin asks the same one:
//
//   - ReconcilePlatform: cached cluster frequencies match the machine's and
//     no core's hotplug state changed underneath the ownership tables;
//   - rescue pass: no stranded application while a free core exists
//     (grabAnyFree would mutate the free pool);
//   - heartbeat consumption: every application's beat count already seen,
//     and its latest record already folded into the trace;
//   - frozen recompute: each cached flag equals anyFreezing;
//   - adaptOne: no application has an adaptation due (adaptDue).
func (mgr *Manager) SteadyBegin(m *sim.Machine) (sim.SteadyEntry, bool) {
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		c := mgr.clusters[k]
		if c.nfreq != m.Level(k) || c.frozen != mgr.anyFreezing(k) {
			return sim.SteadyEntry{}, false
		}
		for i := range c.offline {
			if m.CoreOnline(mgr.plat.CPU(k, i)) == c.offline[i] {
				return sim.SteadyEntry{}, false
			}
		}
	}
	anyFree := mgr.freeCount(hmp.Big)+mgr.freeCount(hmp.Little) > 0
	for n := mgr.head; n != nil; n = n.next {
		if (anyFree && n.stranded()) || n.proc.HB.Count() != n.lastSeen {
			return sim.SteadyEntry{}, false
		}
		// An adaptation due means adaptOne would search and actuate.
		if rec, ok := n.proc.HB.Latest(); ok && (!n.traced(rec) || mgr.adaptDue(n, rec)) {
			return sim.SteadyEntry{}, false
		}
	}
	return sim.SteadyEntry{ChargeCPU: mgr.cfg.OverheadCPU, Charge: core.PollOverhead}, true
}

// Tick implements sim.Daemon: the iterate function of Algorithm 3.
func (mgr *Manager) Tick(m *sim.Machine) {
	m.ChargeOverhead(mgr.cfg.OverheadCPU, core.PollOverhead)
	mgr.ReconcilePlatform(m)

	// Rescue pass: an application stripped to zero cores by hotplug gets
	// the first core that frees up (departure or a core coming back online).
	for n := mgr.head; n != nil; n = n.next {
		if n.stranded() && mgr.grabAnyFree(n) {
			mgr.scheduleThreads(m, n)
		}
	}

	// Lines 6–11: consume new heartbeats, decrement freezing counts, and
	// record trace points.
	for n := mgr.head; n != nil; n = n.next {
		count := n.proc.HB.Count()
		for n.lastSeen < count {
			n.lastSeen++
			if n.freezingCntB > 0 {
				n.freezingCntB--
			}
			if n.freezingCntL > 0 {
				n.freezingCntL--
			}
		}
		if rec, ok := n.proc.HB.Latest(); ok {
			n.lastRate = rec.WindowRate
			if !n.traced(rec) {
				n.trace = append(n.trace, TracePoint{
					Time:        m.Now(),
					HBIndex:     rec.Index,
					HPS:         rec.WindowRate,
					BigCores:    n.nprocsB,
					LittleCores: n.nprocsL,
					BigGHz:      float64(mgr.plat.Clusters[hmp.Big].KHz(mgr.clusters[hmp.Big].nfreq)) / 1e6,
					LittleGHz:   float64(mgr.plat.Clusters[hmp.Little].KHz(mgr.clusters[hmp.Little].nfreq)) / 1e6,
				})
			}
		}
	}

	// Lines 12–15: recompute frozen flags from the freezing counts.
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		mgr.clusters[k].frozen = mgr.anyFreezing(k)
	}

	// Lines 16–26: per-application adaptation.
	for n := mgr.head; n != nil; n = n.next {
		mgr.adaptOne(m, n)
	}
}

// anyFreezing reports whether some application still holds a freezing
// count on cluster k, which keeps the cluster frozen (lines 12–15).
func (mgr *Manager) anyFreezing(k hmp.ClusterKind) bool {
	for n := mgr.head; n != nil; n = n.next {
		if n.freezing(k) > 0 {
			return true
		}
	}
	return false
}

// stranded reports whether a live application holds no core, so the
// rescue pass hands it the first free one.
func (n *appNode) stranded() bool {
	return n.nprocsB+n.nprocsL == 0 && !n.proc.Exited()
}

// traced reports whether the heartbeat record is already the
// application's latest trace point.
func (n *appNode) traced(rec heartbeat.Record) bool {
	return len(n.trace) > 0 && n.trace[len(n.trace)-1].HBIndex == rec.Index
}

func (n *appNode) freezing(k hmp.ClusterKind) int {
	if k == hmp.Big {
		return n.freezingCntB
	}
	return n.freezingCntL
}

func (n *appNode) setFreezing(k hmp.ClusterKind, v int) {
	if k == hmp.Big {
		n.freezingCntB = v
	} else {
		n.freezingCntL = v
	}
}

func (n *appNode) usesCluster(k hmp.ClusterKind) bool {
	if k == hmp.Big {
		return n.nprocsB > 0
	}
	return n.nprocsL > 0
}

// curState is the application's view of the system state: its own cores at
// the shared cluster frequencies.
func (mgr *Manager) curState(n *appNode) hmp.State {
	return hmp.State{
		BigCores:    n.nprocsB,
		LittleCores: n.nprocsL,
		BigLevel:    mgr.clusters[hmp.Big].nfreq,
		LittleLevel: mgr.clusters[hmp.Little].nfreq,
	}
}

// adaptDue reports whether adaptOne acts on the application's latest
// heartbeat record: the application is live, a full adaptation period has
// passed since its last adaptation, and the rate is outside the target band.
func (mgr *Manager) adaptDue(n *appNode, rec heartbeat.Record) bool {
	return !n.proc.Exited() && rec.Index >= n.adaptationIndex+mgr.cfg.AdaptEvery &&
		heartbeat.OutsideBand(n.target, rec.WindowRate)
}

func (mgr *Manager) adaptOne(m *sim.Machine, n *appNode) {
	rec, ok := n.proc.HB.Latest()
	if !ok || !mgr.adaptDue(n, rec) {
		return
	}
	rate := rec.WindowRate
	n.adaptationIndex = rec.Index

	// Line 18: free cores bound the core-count sweep; external DVFS
	// ceilings (thermal capping) bound the frequency sweep.
	bounds := core.Bounds{
		MaxBigCores:    n.nprocsB + mgr.freeCount(hmp.Big),
		MaxLittleCores: n.nprocsL + mgr.freeCount(hmp.Little),
		BigLevelCap:    m.LevelCap(hmp.Big) + 1,
		LittleLevelCap: m.LevelCap(hmp.Little) + 1,
	}
	// Line 19: cluster frequency controllability.
	bounds.BigFreq = mgr.freqConstraint(n, hmp.Big, rate)
	bounds.LittleFreq = mgr.freqConstraint(n, hmp.Little, rate)

	cs := mgr.curState(n)
	res := core.Search(n.est, cs, rate, n.target, mgr.cfg.params(), bounds)
	mgr.searches++
	mgr.exploredTotal += res.Explored
	m.ChargeOverhead(mgr.cfg.OverheadCPU, core.SearchOverhead(res.Explored))

	if res.State == cs {
		return
	}
	// Lines 21–22: core allocation (Algorithm 4) and thread scheduling.
	n.decBigCoreCnt = max(0, n.nprocsB-res.State.BigCores)
	n.decLittleCoreCnt = max(0, n.nprocsL-res.State.LittleCores)
	n.nprocsB = res.State.BigCores
	n.nprocsL = res.State.LittleCores
	mgr.scheduleThreads(m, n)

	// Lines 23–26: apply frequency changes; decreases install freezing
	// counts on every application using the cluster.
	mgr.applyFreq(m, hmp.Big, res.State.BigLevel)
	mgr.applyFreq(m, hmp.Little, res.State.LittleLevel)
}

// freqConstraint computes the per-cluster frequency bound for one
// application's search: sole users are limited only by the frozen flag;
// shared clusters go through Table 4.3, and an Unfreeze verdict clears the
// freezing counts immediately.
func (mgr *Manager) freqConstraint(n *appNode, k hmp.ClusterKind, rate float64) core.FreqConstraint {
	shared := false
	var others []heartbeat.Satisfaction
	for o := mgr.head; o != nil; o = o.next {
		if o == n || !o.usesCluster(k) {
			continue
		}
		shared = true
		if o.proc.HB.Count() > 0 {
			others = append(others, heartbeat.Classify(o.target, o.lastRate))
		}
	}
	frozen := mgr.clusters[k].frozen
	if !shared {
		if frozen {
			return core.FreqIncOnly
		}
		return core.FreqFree
	}
	own := heartbeat.Classify(n.target, rate)
	state, freeze := Decide(own, AggregateOthers(others), frozen)
	if freeze == Unfreeze {
		for o := mgr.head; o != nil; o = o.next {
			o.setFreezing(k, 0)
		}
		mgr.clusters[k].frozen = false
	}
	switch state {
	case IncState:
		return core.FreqIncOnly
	case DecState:
		return core.FreqDecOnly
	default:
		return core.FreqFixed
	}
}

// applyFreq sets a cluster's shared frequency; a decrease freezes the
// cluster by installing freezing counts on every application using it
// (Algorithm 3 lines 23–26).
func (mgr *Manager) applyFreq(m *sim.Machine, k hmp.ClusterKind, level int) {
	c := mgr.clusters[k]
	if level == c.nfreq {
		return
	}
	decreased := level < c.nfreq
	c.nfreq = level
	m.SetLevel(k, level)
	if decreased {
		for o := mgr.head; o != nil; o = o.next {
			if o.usesCluster(k) {
				o.setFreezing(k, freezeBeats)
			}
		}
		c.frozen = true
	}
}

// scheduleThreads runs Algorithm 4 to (re)allocate the application's cores,
// then applies the per-application HARS thread schedule, always the chunk
// scheduler.
func (mgr *Manager) scheduleThreads(m *sim.Machine, n *appNode) {
	bigCores, littleCores := mgr.allocateCores(n)
	st := mgr.curState(n)
	ev := n.est.Perf.EvaluateCached(st)
	core.ApplySchedule(n.proc, ev.Assignment, core.Chunk, bigCores, littleCores)
}
