package sim

import "repro/internal/hmp"

// Node is one machine of a multi-machine simulation: a Machine plus a fleet
// identity. The machine's power model, thermal governor, and runtime
// manager all hang off the embedded Machine (Config.Power and AddDaemon),
// so a Node is the complete bundle a fleet scheduler reasons about — it
// admits applications to a Node, migrates them between Nodes, and rolls
// their energy and heartbeat statistics up per Node.
//
// A Node adds no behaviour of its own: stepping a Node is exactly stepping
// its machine, so single-node simulations driven through the Node
// abstraction are bit-for-bit those driven on the bare machine.
type Node struct {
	// ID is the node's index within its fleet (0 for a standalone node).
	ID int
	// Name is the node's fleet-unique name, stamped onto trace events.
	Name string

	*Machine
}

// NewNode creates a named machine over its own platform description. Every
// event the machine emits is stamped with the node name, so the per-node
// streams of a fleet stay attributable when combined.
func NewNode(id int, name string, plat *hmp.Platform, cfg Config) *Node {
	n := &Node{ID: id, Name: name, Machine: New(plat, cfg)}
	n.Machine.nodeName = name
	return n
}

// SetTracer attaches a tracer to the node's machine and tags it with the
// node name, the fallback for daemon-recorded events that do not stamp a
// node themselves (machine-originated events carry the name regardless).
// One tracer records one node: give each node of a fleet its own.
func (n *Node) SetTracer(tr *Tracer) {
	if tr != nil {
		tr.Node = n.Name
	}
	n.Machine.SetTracer(tr)
}
