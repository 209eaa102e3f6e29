// Package hmp models a big.LITTLE heterogeneous multi-processing (HMP)
// platform of the kind HARS targets: two clusters of cores ("big" and
// "little") with per-cluster DVFS over a discrete operating-performance-point
// (OPP) grid.
//
// The default platform mirrors the ODROID-XU3 board used in the paper's
// evaluation: a Samsung Exynos 5422 with four Cortex-A15 big cores
// (0.8–1.6 GHz) and four Cortex-A7 little cores (0.8–1.3 GHz). Global CPU
// numbering follows the paper's convention (and the board's): little cores
// occupy CPUs 0..3 and big cores CPUs 4..7.
package hmp

import (
	"fmt"
	"slices"
)

// ClusterKind identifies one of the two core clusters of an HMP platform.
type ClusterKind uint8

// The two cluster kinds. Little is the slow, power-efficient in-order
// cluster; Big is the fast, power-hungry out-of-order cluster.
const (
	Little ClusterKind = iota
	Big
	// NumClusters is the number of clusters an HMP platform has.
	NumClusters = 2
)

// String returns "little" or "big".
func (k ClusterKind) String() string {
	switch k {
	case Little:
		return "little"
	case Big:
		return "big"
	}
	return fmt.Sprintf("ClusterKind(%d)", uint8(k))
}

// Other returns the opposite cluster kind.
func (k ClusterKind) Other() ClusterKind {
	if k == Little {
		return Big
	}
	return Little
}

// OPP is one operating performance point of a cluster: a frequency and the
// supply voltage the cluster needs to sustain it.
type OPP struct {
	KHz       int // core clock in kHz
	MilliVolt int // supply voltage in mV
}

// ClusterSpec describes one cluster of an HMP platform.
type ClusterSpec struct {
	Kind ClusterKind
	Name string // e.g. "Cortex-A15"

	// Cores is the number of cores in the cluster.
	Cores int

	// OPPs is the DVFS grid, ascending by frequency. The frequency *level*
	// used throughout the library is an index into this slice.
	OPPs []OPP

	// IPC is the nominal per-cycle throughput of one core relative to a
	// little core. The paper derives the default big/little performance
	// ratio r0 = 3/2 from the instruction width of the A15 (3) and A7 (2).
	IPC float64
}

// Levels returns the number of frequency levels in the cluster's OPP grid.
func (c *ClusterSpec) Levels() int { return len(c.OPPs) }

// MaxLevel returns the highest valid frequency level.
func (c *ClusterSpec) MaxLevel() int { return len(c.OPPs) - 1 }

// KHz returns the frequency in kHz of the given level. Levels outside the
// grid are clamped to the nearest valid level so that estimator sweeps can
// probe beyond the grid without crashing.
func (c *ClusterSpec) KHz(level int) int {
	return c.OPPs[c.ClampLevel(level)].KHz
}

// MilliVolt returns the supply voltage in mV at the given (clamped) level.
func (c *ClusterSpec) MilliVolt(level int) int {
	return c.OPPs[c.ClampLevel(level)].MilliVolt
}

// ClampLevel clamps a frequency level to the valid range of the grid.
func (c *ClusterSpec) ClampLevel(level int) int {
	if level < 0 {
		return 0
	}
	if level >= len(c.OPPs) {
		return len(c.OPPs) - 1
	}
	return level
}

// Validate's size bounds. A CPUMask is a uint64, so a board with more than
// MaxCores cores would have CPUs that can never come online. MaxOPPs bounds
// each cluster's DVFS grid; together the two cap one performance
// estimator's memo table at 33·33·32·32 states (about 94 MB).
const (
	MaxCores = 64
	MaxOPPs  = 32
)

// Platform is a two-cluster HMP machine description.
type Platform struct {
	// Clusters is indexed by ClusterKind.
	Clusters [NumClusters]ClusterSpec

	// BaseKHz is the baseline frequency f0 the paper's models normalize
	// against (800 MHz on the Exynos 5422, the lowest OPP of both clusters).
	BaseKHz int
}

// Default returns the ODROID-XU3-like platform of the paper's evaluation:
// 4 Cortex-A7 little cores at 0.8–1.3 GHz and 4 Cortex-A15 big cores at
// 0.8–1.6 GHz, with 100 MHz DVFS steps and Exynos-5422-style voltage scaling.
func Default() *Platform {
	return &Platform{
		Clusters: [NumClusters]ClusterSpec{
			Little: {
				Kind:  Little,
				Name:  "Cortex-A7",
				Cores: 4,
				IPC:   1.0,
				OPPs: []OPP{
					{KHz: 800_000, MilliVolt: 900},
					{KHz: 900_000, MilliVolt: 925},
					{KHz: 1_000_000, MilliVolt: 975},
					{KHz: 1_100_000, MilliVolt: 1025},
					{KHz: 1_200_000, MilliVolt: 1075},
					{KHz: 1_300_000, MilliVolt: 1112},
				},
			},
			Big: {
				Kind:  Big,
				Name:  "Cortex-A15",
				Cores: 4,
				IPC:   1.5,
				OPPs: []OPP{
					{KHz: 800_000, MilliVolt: 900},
					{KHz: 900_000, MilliVolt: 925},
					{KHz: 1_000_000, MilliVolt: 950},
					{KHz: 1_100_000, MilliVolt: 1000},
					{KHz: 1_200_000, MilliVolt: 1037},
					{KHz: 1_300_000, MilliVolt: 1075},
					{KHz: 1_400_000, MilliVolt: 1112},
					{KHz: 1_500_000, MilliVolt: 1150},
					{KHz: 1_600_000, MilliVolt: 1200},
				},
			},
		},
		BaseKHz: 800_000,
	}
}

// TotalCores returns the number of cores across both clusters.
func (p *Platform) TotalCores() int {
	return p.Clusters[Little].Cores + p.Clusters[Big].Cores
}

// FirstCPU returns the global CPU number of the first core of cluster k.
// Little cores come first (CPU 0), matching the paper's core-allocation
// pseudocode, where big cores are offset by bigStartIndex.
func (p *Platform) FirstCPU(k ClusterKind) int {
	if k == Little {
		return 0
	}
	return p.Clusters[Little].Cores
}

// CPU returns the global CPU number of core i (0-based) of cluster k.
func (p *Platform) CPU(k ClusterKind, i int) int {
	return p.FirstCPU(k) + i
}

// ClusterOf returns the cluster that global CPU number cpu belongs to.
func (p *Platform) ClusterOf(cpu int) ClusterKind {
	if cpu < p.Clusters[Little].Cores {
		return Little
	}
	return Big
}

// FreqScale returns f/f0 for cluster k at the given frequency level: the
// frequency-only speedup relative to the platform baseline frequency.
func (p *Platform) FreqScale(k ClusterKind, level int) float64 {
	return float64(p.Clusters[k].KHz(level)) / float64(p.BaseKHz)
}

// NominalSpeed returns the platform's nominal per-core speed for cluster k at
// the given level, in abstract work units per second: IPC × f/f0. A little
// core at the baseline frequency retires exactly 1.0 units/s. Individual
// applications may deviate from the nominal IPC ratio (the paper's
// blackscholes observation); this value is what HARS's performance estimator
// believes.
func (p *Platform) NominalSpeed(k ClusterKind, level int) float64 {
	return p.Clusters[k].IPC * p.FreqScale(k, level)
}

// R0 returns the platform's nominal big/little performance ratio at the
// baseline frequency (the paper's r0 = S_B,f0 / S_L,f0 = 3/2).
func (p *Platform) R0() float64 {
	return p.Clusters[Big].IPC / p.Clusters[Little].IPC
}

// Validate reports whether the platform description is internally
// consistent.
func (p *Platform) Validate() error {
	for k := ClusterKind(0); k < NumClusters; k++ {
		c := &p.Clusters[k]
		if c.Cores <= 0 {
			return fmt.Errorf("hmp: cluster %s has %d cores", k, c.Cores)
		}
		if c.Cores > MaxCores {
			return fmt.Errorf("hmp: cluster %s has %d cores, more than the %d a CPU mask holds", k, c.Cores, MaxCores)
		}
		if len(c.OPPs) == 0 {
			return fmt.Errorf("hmp: cluster %s has no OPPs", k)
		}
		if len(c.OPPs) > MaxOPPs {
			return fmt.Errorf("hmp: cluster %s has %d OPPs, more than the %d supported", k, len(c.OPPs), MaxOPPs)
		}
		if c.IPC <= 0 {
			return fmt.Errorf("hmp: cluster %s has non-positive IPC", k)
		}
		for i := 1; i < len(c.OPPs); i++ {
			if c.OPPs[i].KHz <= c.OPPs[i-1].KHz {
				return fmt.Errorf("hmp: cluster %s OPPs not ascending at %d", k, i)
			}
		}
	}
	if n := p.TotalCores(); n > MaxCores {
		return fmt.Errorf("hmp: %d cores in total, more than the %d a CPU mask holds", n, MaxCores)
	}
	if p.BaseKHz <= 0 {
		return fmt.Errorf("hmp: non-positive base frequency %d", p.BaseKHz)
	}
	return nil
}

// Equal reports whether two platforms describe the same board, field by
// field, OPP grids included.
func (p *Platform) Equal(q *Platform) bool {
	if p.BaseKHz != q.BaseKHz {
		return false
	}
	for k := range p.Clusters {
		a, b := &p.Clusters[k], &q.Clusters[k]
		if a.Kind != b.Kind || a.Name != b.Name || a.Cores != b.Cores || a.IPC != b.IPC || !slices.Equal(a.OPPs, b.OPPs) {
			return false
		}
	}
	return true
}
