package gts

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hmp"
	"repro/internal/sim"
)

// napper is a program whose threads finish a unit and then either take
// the next one or sleep for a few ticks, drawn from its own seeded source.
type napper struct {
	n   int
	rng *rand.Rand
}

func (p *napper) Name() string    { return "napper" }
func (p *napper) NumThreads() int { return p.n }
func (p *napper) Start(pr *sim.Process) {
	for i := 0; i < p.n; i++ {
		pr.SetWork(i, 0.002+0.01*p.rng.Float64())
	}
}
func (p *napper) UnitDone(pr *sim.Process, local int) {
	if p.rng.Intn(3) == 0 {
		pr.WakeAt(local, pr.Now()+sim.Time(1+p.rng.Intn(5))*sim.Millisecond, 0.005)
		return
	}
	pr.SetWork(local, 0.002+0.01*p.rng.Float64())
}
func (p *napper) SpeedFactor(local int, k hmp.ClusterKind) float64 {
	if k == hmp.Big {
		return 1.5
	}
	return 1
}

// randomMask returns a non-empty random subset of the platform's cores.
func randomMask(rng *rand.Rand, plat *hmp.Platform) hmp.CPUMask {
	for {
		if m := hmp.CPUMask(rng.Uint64()) & hmp.AllCPUs(plat); m != 0 {
			return m
		}
	}
}

// TestQueueCountsFastPath drives GTS machines through random cpusets,
// affinities, hotplugs and threads blocked and woken between Steps. Before
// every Step, queueCounts must report clean exactly when every runnable
// thread is permitted where it sits, and its run-queue counts must then
// equal the full walk's. A fast path that skipped its usable-queue check
// would count threads an allowed-cpuset change had just stranded.
func TestQueueCountsFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	fast, declined := 0, 0
	for trial := 0; trial < 60; trial++ {
		plat := hmp.Default()
		if trial%2 == 1 {
			plat.Clusters[hmp.Big].Cores, plat.Clusters[hmp.Little].Cores = 2, 6
		}
		m := sim.New(plat, sim.Config{})
		g := New(plat)
		m.SetPlacer(g)
		procs := make([]*sim.Process, 1+rng.Intn(3))
		for i := range procs {
			procs[i] = m.Spawn("p", &napper{n: 1 + rng.Intn(12), rng: rand.New(rand.NewSource(rng.Int63()))}, 10)
		}
		for step := 0; step < 300; step++ {
			switch r := rng.Intn(20); {
			case r == 0:
				g.SetAllowed(randomMask(rng, plat))
			case r <= 2:
				p := procs[rng.Intn(len(procs))]
				p.SetAffinity(rng.Intn(len(p.Threads)), randomMask(rng, plat))
			case r == 3:
				cpu := rng.Intn(plat.TotalCores())
				if m.CoreOnline(cpu) && m.OnlineMask() != hmp.CPUMask(0).Set(cpu) {
					m.SetCoreOnline(cpu, false)
				} else {
					m.SetCoreOnline(cpu, true)
				}
			case r <= 5:
				p := procs[rng.Intn(len(procs))]
				if local := rng.Intn(len(p.Threads)); !p.Blocked(local) {
					p.Block(local)
					p.WakeAt(local, m.Now()+sim.Time(rng.Intn(4))*sim.Millisecond, 0.004)
				}
			}
			threads := m.Threads()
			usable := g.Allowed & m.OnlineMask()
			want := countQueues(make([]int, plat.TotalCores()), threads, usable)
			allPermitted := true
			for _, th := range threads {
				if th.Runnable() && (th.Core() < 0 || !permitted(th, th.Core(), usable)) {
					allPermitted = false
				}
			}
			got, clean := g.queueCounts(m, threads, usable)
			if clean != allPermitted {
				t.Fatalf("trial %d step %d: clean = %v, every runnable thread permitted = %v", trial, step, clean, allPermitted)
			}
			if clean {
				fast++
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d step %d: fast counts %v, walk %v (usable %v)", trial, step, got, want, usable)
				}
			} else if m.Misplaced() == 0 {
				declined++ // declined on a non-empty queue outside usable
			}
			m.Step()
		}
	}
	// Both branches must be reached, or the property says nothing.
	if fast < 1000 || declined < 10 {
		t.Fatalf("fast path on %d checks, declined on an unusable queue on %d: the inputs no longer reach both", fast, declined)
	}
	t.Logf("fast path on %d checks, declined on an unusable queue on %d", fast, declined)
}
