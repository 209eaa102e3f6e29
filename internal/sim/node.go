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
	// Name is the node's fleet-unique name, the one the fleet scheduler's
	// decisions and the scenario trace's node lines use.
	Name string

	*Machine
}

// NewNode creates a named machine over its own platform description.
func NewNode(id int, name string, plat *hmp.Platform, cfg Config) *Node {
	return &Node{ID: id, Name: name, Machine: New(plat, cfg)}
}
