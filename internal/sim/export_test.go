package sim

// JumpStats returns the accumulator ticks the machine's windows advanced
// and the real float ticks they spent doing so (see Machine.jump), for the
// window tests in package sim_test.
func (m *Machine) JumpStats() (ticks, cost int64) { return m.jumpTicks, m.jumpCost }
