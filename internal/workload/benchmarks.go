package workload

import (
	"math"
	"sort"

	"repro/internal/sim"
)

// PhaseScalable is the optional program extension scenario "phase" events
// actuate: implementations scale the work of future iterations/items by the
// given positive factor. Both workload templates implement it.
type PhaseScalable interface {
	SetPhaseScale(scale float64)
}

var _ PhaseScalable = (*DataParallel)(nil)
var _ PhaseScalable = (*Pipeline)(nil)

// Both templates support non-destructive snapshots, so every benchmark is
// eligible for periodic background checkpoints and crash recovery.
var _ sim.Cloneable = (*DataParallel)(nil)
var _ sim.Cloneable = (*Pipeline)(nil)

// Benchmark is a named factory for one of the evaluation's applications.
// Programs carry per-run state, so each run must construct a fresh one.
type Benchmark struct {
	// Name is the PARSEC benchmark the model stands in for.
	Name string
	// Short is the paper's two-letter tag (BL, BO, FA, FE, FL, SW).
	Short string
	// New builds a fresh program with the given thread-count parameter n
	// (the paper sets n to the total core count, 8; pipeline benchmarks
	// spawn n threads per middle stage plus the serial end stages).
	New func(n int) sim.Program
}

// paper holds the six benchmarks of the paper's evaluation in the order of
// Figure 5.1, built once: the scenario engine looks one up per arrival
// and per validated app.
// It is read-only — All returns a copy, and the lookups return elements by
// value.
var paper = []Benchmark{
	{
		Name:  "blackscholes",
		Short: "BL",
		// Memory-bound option pricing: identical per-clock speed on big
		// and little cores (true r = 1.0, against HARS's r0 = 1.5), a
		// stable workload, and an initial input-parsing phase during
		// which no heartbeats are emitted (§5.2.2, case 6).
		New: func(n int) sim.Program {
			return &DataParallel{
				AppName:    "blackscholes",
				Threads:    n,
				BigFactor:  1.0,
				Bonus:      0,
				Unit:       ConstUnit(0.40),
				StartDelay: 8 * sim.Second,
			}
		},
	},
	{
		Name:  "bodytrack",
		Short: "BO",
		// Per-frame body tracking: work varies frame to frame, driving
		// repeated adaptation.
		New: func(n int) sim.Program {
			return &DataParallel{
				AppName:   "bodytrack",
				Threads:   n,
				BigFactor: 1.5,
				Bonus:     0.05,
				Unit: func(iter int64) float64 {
					return 0.65 * (1 + 0.30*math.Sin(2*math.Pi*float64(iter)/40))
				},
			}
		},
	},
	{
		Name:  "facesim",
		Short: "FA",
		// Heavy physics frames with mild variation and some
		// constructive sharing between adjacent partitions.
		New: func(n int) sim.Program {
			return &DataParallel{
				AppName:   "facesim",
				Threads:   n,
				BigFactor: 1.45,
				Bonus:     0.08,
				Unit: func(iter int64) float64 {
					return 1.8 * (1 + 0.10*math.Sin(2*math.Pi*float64(iter)/25))
				},
			}
		},
	},
	{
		Name:  "ferret",
		Short: "FE",
		// 6-stage similarity-search pipeline: serial load and output
		// stages around four n-thread middle stages. Vulnerable to the
		// chunk-based scheduler placing whole stages on little cores
		// (§5.1.2) — the case HARS-EI's interleaving scheduler fixes.
		New: func(n int) sim.Program {
			return &Pipeline{
				AppName:      "ferret",
				StageThreads: []int{1, n, n, n, n, 1},
				StageWork:    []float64{0.03, 0.12, 0.18, 0.42, 0.15, 0.02},
				QueueCap:     8,
				BigFactor:    1.5,
			}
		},
	},
	{
		Name:  "fluidanimate",
		Short: "FL",
		// Grid-partitioned fluid simulation: strong constructive cache
		// sharing between adjacent partitions, sawtooth work variation.
		New: func(n int) sim.Program {
			return &DataParallel{
				AppName:   "fluidanimate",
				Threads:   n,
				BigFactor: 1.5,
				Bonus:     0.10,
				Unit: func(iter int64) float64 {
					return 0.50 * (1 + 0.15*triangle(float64(iter)/30))
				},
			}
		},
	},
	{
		Name:  "swaptions",
		Short: "SW",
		// Monte-Carlo pricing with the paper's enlarged input
		// (-ns 12800 -sm 10000): steady, embarrassingly parallel work.
		New: func(n int) sim.Program {
			return &DataParallel{
				AppName:   "swaptions",
				Threads:   n,
				BigFactor: 1.55,
				Bonus:     0,
				Unit:      ConstUnit(0.90),
			}
		},
	},
}

// All returns the six benchmarks of the paper's evaluation in the order of
// Figure 5.1 (BL, BO, FA, FE, FL, SW).
func All() []Benchmark { return append([]Benchmark(nil), paper...) }

// triangle is a unit-period triangle wave in [-1, 1].
func triangle(x float64) float64 {
	_, frac := math.Modf(x)
	if frac < 0 {
		frac += 1
	}
	return 4*math.Abs(frac-0.5) - 1
}

// ByShort looks a benchmark up by its two-letter tag (case-sensitive).
func ByShort(short string) (Benchmark, bool) {
	for _, b := range paper {
		if b.Short == short {
			return b, true
		}
	}
	return Benchmark{}, false
}

// Shorts returns the sorted list of two-letter tags.
func Shorts() []string {
	var out []string
	for _, b := range paper {
		out = append(out, b.Short)
	}
	sort.Strings(out)
	return out
}
