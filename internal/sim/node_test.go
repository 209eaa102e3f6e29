package sim_test

import (
	"testing"

	"repro/internal/hmp"
	"repro/internal/sim"
)

// TestNodeStepEqualsMachineStep pins the Node abstraction's core contract:
// stepping a node is bit-for-bit stepping its bare machine, and two nodes
// advanced in lockstep behave exactly like the same two machines advanced
// one after the other.
func TestNodeStepEqualsMachineStep(t *testing.T) {
	plat := hmp.Default()
	bare := sim.New(plat, sim.Config{})
	node := sim.NewNode(0, "n0", plat, sim.Config{})
	pb := bare.Spawn("s", &spinner{threads: 2, unit: 0.3, beats: true}, 4)
	pn := node.Spawn("s", &spinner{threads: 2, unit: 0.3, beats: true}, 4)

	// Lockstep: interleave node ticks with a second, independent node to
	// show shared-clock advancement does not perturb either machine.
	other := sim.NewNode(1, "n1", plat, sim.Config{})
	other.Spawn("o", &spinner{threads: 1, unit: 0.5, beats: true}, 4)
	for bare.Now() < 2*sim.Second {
		bare.Step()
		node.Step()
		other.Step()
	}
	if node.Now() != bare.Now() {
		t.Fatalf("clocks diverged: node %d, machine %d", node.Now(), bare.Now())
	}
	if pb.HB.Count() != pn.HB.Count() || pb.WorkDone() != pn.WorkDone() {
		t.Fatalf("node run diverged: beats %d/%d work %v/%v",
			pn.HB.Count(), pb.HB.Count(), pn.WorkDone(), pb.WorkDone())
	}
}

// TestNodeImplementsTicker pins the node's clock: one step advances it by
// one tick, in agreement with its machine's.
func TestNodeImplementsTicker(t *testing.T) {
	n := sim.NewNode(0, "n", hmp.Default(), sim.Config{})
	n.Step()
	if n.Now() != n.Machine.Now() || n.Now() != sim.TickLen {
		t.Fatalf("after one step node at %d, machine at %d, tick %d", n.Now(), n.Machine.Now(), sim.TickLen)
	}
}
