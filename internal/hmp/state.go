package hmp

import "fmt"

// State is one point of the four-dimensional configurable system space the
// HARS runtime manager explores: the number of big and little cores
// allocated to an application and the frequency level of each cluster.
//
// Frequency fields are *levels* (indices into the cluster OPP grids), not
// kHz, so the Manhattan distance of the paper's search function (Algorithm 2)
// is well defined: one DVFS step and one core count step both have
// distance 1.
type State struct {
	BigCores    int // number of big cores allocated (0..Clusters[Big].Cores)
	LittleCores int // number of little cores allocated
	BigLevel    int // big cluster frequency level
	LittleLevel int // little cluster frequency level
}

// MaxState returns the maximum system state: all cores at the highest
// frequency of each cluster. This is the baseline version's fixed state.
func MaxState(p *Platform) State {
	return State{
		BigCores:    p.Clusters[Big].Cores,
		LittleCores: p.Clusters[Little].Cores,
		BigLevel:    p.Clusters[Big].MaxLevel(),
		LittleLevel: p.Clusters[Little].MaxLevel(),
	}
}

// WithCores returns a copy of the state with cluster k's core count set.
func (s State) WithCores(k ClusterKind, n int) State {
	if k == Big {
		s.BigCores = n
	} else {
		s.LittleCores = n
	}
	return s
}

// WithLevel returns a copy of the state with cluster k's frequency level set.
func (s State) WithLevel(k ClusterKind, lv int) State {
	if k == Big {
		s.BigLevel = lv
	} else {
		s.LittleLevel = lv
	}
	return s
}

// TotalCores returns the total number of cores the state allocates.
func (s State) TotalCores() int { return s.BigCores + s.LittleCores }

// Valid reports whether the state is inside the platform's configurable
// space and allocates at least one core.
func (s State) Valid(p *Platform) bool {
	return s.BigCores >= 0 && s.BigCores <= p.Clusters[Big].Cores &&
		s.LittleCores >= 0 && s.LittleCores <= p.Clusters[Little].Cores &&
		s.TotalCores() >= 1 &&
		s.BigLevel >= 0 && s.BigLevel <= p.Clusters[Big].MaxLevel() &&
		s.LittleLevel >= 0 && s.LittleLevel <= p.Clusters[Little].MaxLevel()
}

// Cpuset returns the cpuset a state's cores occupy: the first C_L little
// and C_B big cores, or every core when the state allocates none.
func (s State) Cpuset(p *Platform) CPUMask {
	var mask CPUMask
	for i := 0; i < s.LittleCores; i++ {
		mask = mask.Set(p.CPU(Little, i))
	}
	for i := 0; i < s.BigCores; i++ {
		mask = mask.Set(p.CPU(Big, i))
	}
	if mask == 0 {
		return AllCPUs(p)
	}
	return mask
}

// Distance returns the Manhattan distance between two states in the
// four-dimensional (C_B, C_L, f_B, f_L) level space, as used by the paper's
// search function to bound the explored neighbourhood (parameter d).
func Distance(a, b State) int {
	return absInt(a.BigCores-b.BigCores) +
		absInt(a.LittleCores-b.LittleCores) +
		absInt(a.BigLevel-b.BigLevel) +
		absInt(a.LittleLevel-b.LittleLevel)
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// PerfScore is the scalar performance score the CONS-I baseline sorts system
// configurations by: perfScore = C_B·r0·(f_B/f0) + C_L·(f_L/f0).
func (s State) PerfScore(p *Platform, r0 float64) float64 {
	return float64(s.BigCores)*r0*p.FreqScale(Big, s.BigLevel) +
		float64(s.LittleCores)*p.FreqScale(Little, s.LittleLevel)
}

// String renders the state as, e.g., "B2@1.4GHz L4@1.0GHz".
func (s State) String() string {
	return fmt.Sprintf("B%d@L%d L%d@L%d", s.BigCores, s.BigLevel, s.LittleCores, s.LittleLevel)
}

// Pretty renders the state with real frequencies on the given platform.
func (s State) Pretty(p *Platform) string {
	return fmt.Sprintf("B%d@%.1fGHz L%d@%.1fGHz",
		s.BigCores, float64(p.Clusters[Big].KHz(s.BigLevel))/1e6,
		s.LittleCores, float64(p.Clusters[Little].KHz(s.LittleLevel))/1e6)
}

// AllStates enumerates every valid state of the platform (total cores ≥ 1),
// optionally striding the frequency grids (stride ≥ 1) to coarsen the sweep.
// The static-optimal oracle sweeps this list.
func AllStates(p *Platform, freqStride int) []State {
	if freqStride < 1 {
		freqStride = 1
	}
	var out []State
	for cb := 0; cb <= p.Clusters[Big].Cores; cb++ {
		for cl := 0; cl <= p.Clusters[Little].Cores; cl++ {
			if cb+cl == 0 {
				continue
			}
			for fb := 0; fb <= p.Clusters[Big].MaxLevel(); fb += freqStride {
				for fl := 0; fl <= p.Clusters[Little].MaxLevel(); fl += freqStride {
					out = append(out, State{
						BigCores: cb, LittleCores: cl,
						BigLevel: fb, LittleLevel: fl,
					})
				}
			}
		}
	}
	return out
}

// CPUMask is a bitmask over global CPU numbers, the affinity representation
// used by the simulated sched_setaffinity.
type CPUMask uint64

// MaskOf builds a mask from a list of global CPU numbers.
func MaskOf(cpus ...int) CPUMask {
	var m CPUMask
	for _, c := range cpus {
		m |= 1 << uint(c)
	}
	return m
}

// Has reports whether CPU cpu is in the mask.
func (m CPUMask) Has(cpu int) bool { return m&(1<<uint(cpu)) != 0 }

// Set returns the mask with CPU cpu added.
func (m CPUMask) Set(cpu int) CPUMask { return m | 1<<uint(cpu) }

// Clear returns the mask with CPU cpu removed.
func (m CPUMask) Clear(cpu int) CPUMask { return m &^ (1 << uint(cpu)) }

// Count returns the number of CPUs in the mask.
func (m CPUMask) Count() int {
	n := 0
	for m != 0 {
		m &= m - 1
		n++
	}
	return n
}

// Intersect returns the intersection of two masks.
func (m CPUMask) Intersect(o CPUMask) CPUMask { return m & o }

// AllCPUs returns the mask of every core on the platform.
func AllCPUs(p *Platform) CPUMask {
	var m CPUMask
	for c := 0; c < p.TotalCores(); c++ {
		m = m.Set(c)
	}
	return m
}

// ClusterMask returns the mask of all cores of cluster k.
func ClusterMask(p *Platform, k ClusterKind) CPUMask {
	var m CPUMask
	for i := 0; i < p.Clusters[k].Cores; i++ {
		m = m.Set(p.CPU(k, i))
	}
	return m
}
