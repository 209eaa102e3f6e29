package sim

// JumpStats returns the accumulator ticks the machine's windows advanced
// and the real float ticks they spent doing so (see Machine.jump), for the
// window tests in package sim_test.
func (m *Machine) JumpStats() (ticks, cost int64) { return m.jumpTicks, m.jumpCost }

// RunStats returns the Steps RunUntil took and the windows RunSteady ran on
// the machine, for the re-entry tests in package sim_test.
func (m *Machine) RunStats() (steps, windows int64) { return m.steps, m.windows }
