package workload

import (
	"math"

	"repro/internal/sim"
)

// Extended returns workload models beyond the six the paper evaluates —
// the rest of the PARSEC suite's common picks, with their published
// characteristics. They are not part of the reproduced figures (All()
// stays exactly the paper's set) but let downstream users stress HARS on a
// wider spectrum: the ExtendedSuite experiment and the examples use them.
func Extended() []Benchmark {
	return []Benchmark{
		{
			Name:  "canneal",
			Short: "CA",
			// Cache-thrashing simulated annealing: strongly memory-bound,
			// so big cores barely help (r ≈ 1.1) and co-located neighbours
			// fight instead of sharing (negative locality modelled as no
			// bonus); anneal steps shrink over time.
			New: func(n int) sim.Program {
				return &DataParallel{
					AppName:   "canneal",
					Threads:   n,
					BigFactor: 1.1,
					Bonus:     0,
					Unit: func(iter int64) float64 {
						return 0.70 * (1 + 0.5*math.Exp(-float64(iter)/120))
					},
				}
			},
		},
		{
			Name:  "dedup",
			Short: "DE",
			// 5-stage deduplication pipeline (fragment, chunk, hash,
			// compress, write): compress dominates; serial ends.
			New: func(n int) sim.Program {
				return &Pipeline{
					AppName:      "dedup",
					StageThreads: []int{1, n, n, n, 1},
					StageWork:    []float64{0.02, 0.10, 0.14, 0.34, 0.04},
					QueueCap:     8,
					BigFactor:    1.45,
				}
			},
		},
		{
			Name:  "streamcluster",
			Short: "SC",
			// Online clustering: long barrier phases with abrupt work jumps
			// when the cluster-centre count changes — a stress test for
			// workload prediction.
			New: func(n int) sim.Program {
				return &DataParallel{
					AppName:   "streamcluster",
					Threads:   n,
					BigFactor: 1.4,
					Bonus:     0.05,
					Unit: func(iter int64) float64 {
						if (iter/25)%2 == 0 {
							return 0.45
						}
						return 1.05
					},
				}
			},
		},
		{
			Name:  "x264",
			Short: "X2",
			// Video encoding: frame pipeline with a heavy motion-estimation
			// stage and strong frame-to-frame variation (I/P/B frames).
			New: func(n int) sim.Program {
				return &Pipeline{
					AppName:      "x264",
					StageThreads: []int{1, n, n, 1},
					StageWork:    []float64{0.03, 0.38, 0.16, 0.03},
					QueueCap:     6,
					BigFactor:    1.5,
					Bonus:        0.05,
				}
			},
		},
	}
}

// AllExtended returns the paper's six benchmarks followed by the extended
// catalog.
func AllExtended() []Benchmark {
	return append(All(), Extended()...)
}
