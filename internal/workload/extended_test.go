package workload_test

import (
	"testing"

	"repro/internal/hmp"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestExtendedCatalog(t *testing.T) {
	ext := workload.Extended()
	if len(ext) != 4 {
		t.Fatalf("extended benchmarks = %d, want 4", len(ext))
	}
	seen := map[string]bool{}
	for _, b := range workload.AllExtended() {
		if seen[b.Short] {
			t.Fatalf("duplicate short tag %s", b.Short)
		}
		seen[b.Short] = true
	}
	if len(seen) != 10 {
		t.Fatalf("AllExtended = %d entries, want 10", len(seen))
	}
}

// extended returns the extended-catalog benchmark with the given tag.
func extended(t *testing.T, short string) workload.Benchmark {
	t.Helper()
	for _, b := range workload.Extended() {
		if b.Short == short {
			return b
		}
	}
	t.Fatalf("no extended benchmark %s", short)
	return workload.Benchmark{}
}

func TestExtendedBenchmarksRun(t *testing.T) {
	for _, b := range workload.Extended() {
		b := b
		t.Run(b.Short, func(t *testing.T) {
			plat := hmp.Default()
			m := sim.New(plat, sim.Config{})
			p := m.Spawn(b.Name, b.New(8), 8)
			m.Run(25 * sim.Second)
			if p.HB.Count() == 0 {
				t.Fatalf("%s emitted no heartbeats", b.Short)
			}
			// And keeps making progress (no pipeline deadlock).
			before := p.HB.Count()
			m.Run(15 * sim.Second)
			if p.HB.Count() == before {
				t.Fatalf("%s stalled", b.Short)
			}
		})
	}
}

func TestCannealTraits(t *testing.T) {
	b := extended(t, "CA")
	prog := b.New(8)
	if f := prog.SpeedFactor(0, hmp.Big); f > 1.2 {
		t.Errorf("canneal big factor = %v, want memory-bound ≈1.1", f)
	}
	dp := prog.(*workload.DataParallel)
	// Annealing cools: early iterations heavier than late ones.
	if dp.Unit(0) <= dp.Unit(500) {
		t.Error("canneal work should shrink as annealing cools")
	}
}

func TestStreamclusterPhaseJumps(t *testing.T) {
	b := extended(t, "SC")
	dp := b.New(8).(*workload.DataParallel)
	lo, hi := dp.Unit(0), dp.Unit(30)
	if hi <= lo*1.5 {
		t.Errorf("streamcluster phases should jump: %v vs %v", lo, hi)
	}
}

func TestExtendedPipelinesExposeHierarchy(t *testing.T) {
	for _, short := range []string{"DE", "X2"} {
		b := extended(t, short)
		prog := b.New(4)
		g, ok := prog.(sim.ThreadGrouper)
		if !ok {
			t.Fatalf("%s should expose thread groups", short)
		}
		total := 0
		for _, n := range g.ThreadGroups() {
			total += n
		}
		if total != prog.NumThreads() {
			t.Fatalf("%s groups sum %d != threads %d", short, total, prog.NumThreads())
		}
	}
}
