// Package fleet scales the HARS reproduction from one machine to many: a
// set of heterogeneous nodes — each its own sim.Machine with its own
// platform description, power model, thermal governor, and runtime manager
// — advancing in lockstep on one deterministic clock, with a fleet
// scheduler admitting arriving applications to a node through pluggable
// placement policies, queueing them when no node has capacity, and
// migrating them off saturated nodes.
//
// The paper evaluates HARS on a single ODROID-XU3 board; MARS (Mück et al.)
// shows the same resource-management ideas composing hierarchically — per-
// node controllers under a reflective coordinator — and that is the shape
// of this package: the per-node HARS / MP-HARS managers keep running
// unmodified as machine daemons, while the fleet layer only decides *which*
// node an application lands on and when it should move.
//
// # Event-driven advancement
//
// The reference semantics are lockstep: every Step advances each node one
// tick in index order, then runs the fleet-wide hooks. RunUntil, however,
// is discrete-event: it asks every hook implementing Sleeper for its next
// wake time, takes the minimum as a barrier, advances each node to the
// barrier in turn (each machine runs its own certified windows —
// sim.Machine.SteadyUntil, with idle and crashed machines jumping empty
// windows), and runs the hooks once at the barrier. The skipped hook
// invocations are certified no-ops by the Sleeper contract, so the walk
// visits exactly the states lockstep would: every digest, counter, and
// trace byte is bit-for-bit identical. A hook that does not implement
// Sleeper (or one that wants to run now) drops the fleet back to per-tick
// lockstep, which is always correct. SetLockstep is the one strategy
// switch: it forces the reference path outright, stepping every machine
// tick by tick.
//
// # Barrier cost
//
// A barrier costs O(nodes) — one pass to bring every node to it — and the
// scheduler's NextWake stays within that bound without keeping state of
// its own. Without fault-aware scheduling it reads only the queue and the
// migration cadence. With it, every barrier's Tick already loops over all
// nodes (reconcile and detection), so NextWake's scan of each node's
// failed flag and detector verdict is one more pass of two flag reads per
// node. Machines route their empty-window jumps through one shared
// sim.JumpCache, so a barrier over a mostly-idle fleet replays the energy
// accumulation of each distinct machine state once instead of once per
// node.
//
// # Determinism
//
// Everything is deterministic: nodes step in index order within one shared
// tick, scheduler decisions happen at tick boundaries with fixed
// tie-breaking (policy score, then node index), and the queue drains FIFO.
// Replaying the same node set and arrival sequence produces bit-identical
// machines whatever the advancement strategy, because nodes evolve
// independently between hook barriers. A fleet of one node is bit-for-bit
// the bare machine run — the Node wrapper adds no behaviour — which is
// what lets the scenario engine route every run, single- or multi-node,
// through this layer.
package fleet

import (
	"fmt"

	"repro/internal/hmp"
	"repro/internal/mphars"
	"repro/internal/sim"
	"repro/internal/thermal"
)

// Node is one machine of a fleet: the sim.Node identity plus the typed
// handles the placement policies and the scheduler consult — the MP-HARS
// manager when the node partitions cores, and the thermal governor when the
// node models heat. Both may be nil; the daemons themselves are registered
// on the embedded machine as usual.
type Node struct {
	*sim.Node

	// MP is the node's MP-HARS manager, nil when the node runs
	// single-application managers or no manager at all. A node with an MP
	// manager has partitioned admission capacity (FreeCores); other nodes
	// time-share and always admit.
	MP *mphars.Manager

	// Gov is the node's closed-loop thermal governor, nil when the node
	// does not model heat. Heat-aware placement reads temperatures from it;
	// governor-less nodes are assumed to sit at ambient.
	Gov *thermal.Governor

	// down marks a node the failure detector currently declares failed:
	// placement skips it until it proves alive again. Maintained by the
	// fault-aware scheduler; distinct from Machine.Failed (the ground
	// truth), which the detector only learns after the heartbeat timeout.
	down bool
}

// SetDown records the failure detector's verdict for the node.
func (n *Node) SetDown(down bool) { n.down = down }

// Down reports whether the failure detector currently declares the node
// failed. Always false without fault-aware scheduling.
func (n *Node) Down() bool { return n.down }

// FreeCores returns how many cores of cluster k are admissible capacity:
// the MP-HARS free pool on partitioned nodes, the online core count on
// time-shared nodes.
func (n *Node) FreeCores(k hmp.ClusterKind) int {
	if n.MP != nil {
		return n.MP.FreeCores(k)
	}
	return n.OnlineCount(k)
}

// CanAdmit reports whether the node can accept one more application right
// now. Partitioned nodes need at least one free core (the admission rule
// MP-HARS applies at Register); time-shared nodes always admit. The check
// is pure — call Reconcile first when hotplug or capping may have moved
// under the partition tables (the scheduler does, once per decision point).
func (n *Node) CanAdmit() bool {
	if n.down {
		return false
	}
	if n.MP == nil {
		return true
	}
	return n.MP.FreeCores(hmp.Big)+n.MP.FreeCores(hmp.Little) > 0
}

// Reconcile folds the machine's hotplug and DVFS-cap state into the node's
// partition tables (a no-op for time-shared nodes), exactly as a direct
// registration would before consulting the free pool.
func (n *Node) Reconcile() {
	if n.MP != nil {
		n.MP.ReconcilePlatform(n.Machine)
	}
}

// Load returns the node's instantaneous load: how many threads are
// runnable machine-wide.
func (n *Node) Load() int { return n.RunnableCount() }

// CapacityScore estimates the node's spare heartbeat-throughput capacity:
// free cores weighted by each cluster's nominal speed (IPC × frequency
// scale) at the active DVFS ceiling. A thermally throttled or capped node
// therefore predicts less deliverable performance than a cold one with the
// same free cores. The scale is dimensionless — comparable across nodes
// within one decision, which is all a placement policy needs.
func (n *Node) CapacityScore() float64 {
	plat := n.Platform()
	var s float64
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		s += float64(n.FreeCores(k)) * plat.NominalSpeed(k, n.LevelCap(k))
	}
	if n.MP == nil {
		// Time-shared nodes always admit and FreeCores reports the full
		// online count; discount by the instantaneous load so a busy
		// time-shared node stops outscoring an idle one. Partitioned nodes
		// need no discount — their free pool already reflects occupancy.
		s /= float64(1 + n.Load())
	}
	return s
}

// MaxTempC returns the hotter cluster's modeled temperature, or the thermal
// default ambient for nodes without a governor (an unmodeled node is
// assumed cold — it has nothing to throttle).
func (n *Node) MaxTempC() float64 {
	if n.Gov == nil {
		return thermal.DefaultAmbientC
	}
	b, l := n.Gov.TempC(hmp.Big), n.Gov.TempC(hmp.Little)
	if b > l {
		return b
	}
	return l
}

// Hook is a per-tick fleet-wide observer: it runs after every node has
// advanced one tick, with a consistent cross-node view. The scheduler's
// admission and migration passes are hooks.
type Hook interface {
	Tick(f *Fleet)
}

// HookFunc adapts a function to the Hook interface.
type HookFunc func(f *Fleet)

// Tick implements Hook.
func (fn HookFunc) Tick(f *Fleet) { fn(f) }

// Sleeper is the opt-in contract that lets a Hook participate in
// event-driven advancement. NextWake returns the earliest future clock time
// at which the hook's Tick is anything but a no-op; a return at or before
// f.Now() means "run me every tick". Skipped Tick invocations strictly
// before the returned time must be pure no-ops, and NextWake itself must
// not mutate anything. Hooks that do not implement Sleeper force per-tick
// lockstep, which is always correct.
type Sleeper interface {
	NextWake(f *Fleet) sim.Time
}

// Fleet advances a set of nodes on one deterministic clock: every Step
// ticks each node once, in index order, then runs the fleet-wide hooks.
// RunUntil additionally jumps stretches no hook or node cares about (see
// the package comment).
type Fleet struct {
	nodes []*Node
	hooks []Hook

	// sleepers caches the Sleeper assertion per hook (nil = the hook does
	// not implement it and forces lockstep), so the barrier loop does not
	// re-assert every hook every iteration.
	sleepers    []Sleeper
	allSleepers bool

	lockstep bool

	// jump is the empty-window replay memo every node's advancement to a
	// barrier shares.
	jump *sim.JumpCache
}

// New builds a fleet over the given nodes. All nodes must share one
// current time (normally zero: assemble the fleet before running
// anything), and node IDs must match their index.
func New(nodes ...*Node) (*Fleet, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("fleet: no nodes")
	}
	now := nodes[0].Now()
	for i, n := range nodes {
		if n.ID != i {
			return nil, fmt.Errorf("fleet: node %q has ID %d at index %d", n.Name, n.ID, i)
		}
		if n.Now() != now {
			return nil, fmt.Errorf("fleet: node %q clock %d differs from node %q clock %d",
				n.Name, n.Now(), nodes[0].Name, now)
		}
	}
	return &Fleet{nodes: nodes, allSleepers: true, jump: sim.NewJumpCache()}, nil
}

// Nodes returns the fleet's nodes in index order.
func (f *Fleet) Nodes() []*Node { return f.nodes }

// Now returns the shared clock (every node agrees with it).
func (f *Fleet) Now() sim.Time { return f.nodes[0].Now() }

// AddHook registers a fleet-wide per-tick hook. Hooks run in registration
// order after all nodes have stepped.
func (f *Fleet) AddHook(h Hook) {
	f.hooks = append(f.hooks, h)
	s, ok := h.(Sleeper)
	f.sleepers = append(f.sleepers, s)
	if !ok {
		f.allSleepers = false
	}
}

// SetLockstep forces the reference per-tick advancement strategy: RunUntil
// degenerates to Step in a loop. The result is always bit-for-bit what the
// event-driven walk produces; the switch exists for benchmarking and for
// the equivalence suite that proves exactly that.
func (f *Fleet) SetLockstep(on bool) { f.lockstep = on }

// Step advances every node by one tick (index order), then runs the hooks.
func (f *Fleet) Step() {
	for _, n := range f.nodes {
		n.Step()
	}
	for _, h := range f.hooks {
		h.Tick(f)
	}
}

// RunUntil advances the shared clock until it reaches t: the event-driven
// core. Each iteration computes the barrier — the earliest time ≤ t any
// hook wants to run — advances every node there in index order, each
// running its own certified windows, and runs the hooks once. Hook
// invocations skipped in between are no-ops by the Sleeper contract; a
// non-Sleeper hook (or one due now) falls back to one lockstep Step.
func (f *Fleet) RunUntil(t sim.Time) {
	for f.Now() < t {
		if f.lockstep || !f.allSleepers {
			f.Step()
			continue
		}
		now, barrier, wakeNow := f.Now(), t, false
		for _, s := range f.sleepers {
			w := s.NextWake(f)
			if w <= now {
				wakeNow = true
				break
			}
			if w < barrier {
				barrier = w
			}
		}
		if wakeNow {
			f.Step()
			continue
		}
		for _, n := range f.nodes {
			n.RunUntilCached(barrier, f.jump)
		}
		for _, h := range f.hooks {
			h.Tick(f)
		}
	}
}

// EnergyJ returns the fleet-wide energy rollup: the sum over nodes.
func (f *Fleet) EnergyJ() float64 {
	var sum float64
	for _, n := range f.nodes {
		sum += n.EnergyJ()
	}
	return sum
}

// Overhead returns the fleet-wide runtime-manager CPU time rollup.
func (f *Fleet) Overhead() sim.Time {
	var sum sim.Time
	for _, n := range f.nodes {
		sum += n.Overhead()
	}
	return sum
}

// HPS returns the fleet-wide heartbeat-rate rollup: the sum of the latest
// window rates of every live (non-exited) process across all nodes.
func (f *Fleet) HPS() float64 {
	var sum float64
	for _, n := range f.nodes {
		if n.NumProcs() == 0 {
			continue // never hosted anything: nothing to sum
		}
		for _, p := range n.Procs() {
			if p.Exited() {
				continue
			}
			if rec, ok := p.HB.Latest(); ok {
				sum += rec.WindowRate
			}
		}
	}
	return sum
}
