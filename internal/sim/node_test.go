package sim_test

import (
	"bytes"
	"strings"
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

// TestNodeTaggedTrace checks that events recorded through a node-attached
// tracer carry the node name and that the CSV gains the node column, while
// untagged tracers keep the historical header.
func TestNodeTaggedTrace(t *testing.T) {
	node := sim.NewNode(3, "edge-3", hmp.Default(), sim.Config{})
	tr := &sim.Tracer{}
	node.SetTracer(tr)
	if node.Tracer() != tr {
		t.Fatal("tracer not attached to the node's machine")
	}
	p := node.Spawn("s", &spinner{threads: 1, unit: 0.2, beats: true}, 4)
	p.SetAffinity(0, hmp.MaskOf(0))
	node.Run(1 * sim.Second)
	node.SetLevel(hmp.Big, 2)

	if len(tr.Events()) == 0 {
		t.Fatal("no events traced")
	}
	for _, e := range tr.Events() {
		if e.Node != "edge-3" {
			t.Fatalf("event %v missing node tag: %q", e.Kind, e.Node)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	if !strings.HasSuffix(lines[0], ",node") {
		t.Fatalf("tagged CSV header missing node column: %q", lines[0])
	}
	if !strings.Contains(lines[1], ",edge-3") {
		t.Fatalf("tagged CSV row missing node: %q", lines[1])
	}

	// A tracer attached through Machine.SetTracer carries no node tag, yet
	// the node's events still name it (per-event stamping, which the
	// tracer-level tag would otherwise mask).
	a := sim.NewNode(0, "a", hmp.Default(), sim.Config{})
	untagged := &sim.Tracer{}
	a.Machine.SetTracer(untagged)
	a.SetLevel(hmp.Big, 1)
	evs := untagged.Events()
	if untagged.Node != "" || len(evs) != 1 || evs[0].Node != "a" {
		t.Fatalf("untagged tracer on node a recorded %+v (tag %q)", evs, untagged.Node)
	}

	// Untagged tracers keep the historical nine-column format.
	m := sim.New(hmp.Default(), sim.Config{})
	tr2 := &sim.Tracer{}
	m.SetTracer(tr2)
	m.SetLevel(hmp.Big, 1)
	var buf2 bytes.Buffer
	if err := tr2.WriteCSV(&buf2); err != nil {
		t.Fatal(err)
	}
	if h := strings.Split(buf2.String(), "\n")[0]; h != "time_us,kind,proc,thread,from,to,cluster,khz,temp_c" {
		t.Fatalf("untagged CSV header changed: %q", h)
	}
}
