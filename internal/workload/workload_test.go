package workload_test

import (
	"math"
	"testing"

	"repro/internal/hmp"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestDataParallelBarrier(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	m.SetLevel(hmp.Little, 0)
	m.SetLevel(hmp.Big, 0)
	d := &workload.DataParallel{
		AppName: "dp", Threads: 2, BigFactor: 2.0,
		Unit: workload.ConstUnit(1.0),
	}
	p := m.Spawn("dp", d, 4)
	// Thread 0 on a big core (2.0 units/s at f0 for BigFactor 2), thread 1
	// on little (1.0 units/s): the barrier makes the little thread the
	// bottleneck — 1 iteration per second.
	p.SetAffinity(0, hmp.MaskOf(4))
	p.SetAffinity(1, hmp.MaskOf(0))
	m.Run(10 * sim.Second)
	if n := p.HB.Count(); n < 9 || n > 10 {
		t.Fatalf("beats = %d, want ≈10 (slowest-thread bound)", n)
	}
	if it := d.Iteration(); it < 9 || it > 10 {
		t.Errorf("iterations = %d, want ≈10", it)
	}
	// The big thread must have idled at the barrier about half the time.
	if u := m.Util(4); u > 0.6 {
		t.Errorf("big core util = %v, want ≈0.5 (barrier wait)", u)
	}
}

func TestDataParallelStartDelay(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	d := &workload.DataParallel{
		AppName: "dp", Threads: 4, BigFactor: 1.5,
		Unit:       workload.ConstUnit(0.2),
		StartDelay: 5 * sim.Second,
	}
	p := m.Spawn("dp", d, 4)
	m.Run(4 * sim.Second)
	if n := p.HB.Count(); n != 0 {
		t.Fatalf("beats during startup phase = %d, want 0", n)
	}
	m.Run(6 * sim.Second)
	if n := p.HB.Count(); n == 0 {
		t.Fatal("no beats after startup phase")
	}
}

func TestDataParallelVariation(t *testing.T) {
	var seen []int64
	d := &workload.DataParallel{
		AppName: "dp", Threads: 1, BigFactor: 1.5,
		Unit: func(iter int64) float64 {
			seen = append(seen, iter)
			return 0.1
		},
	}
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	m.Spawn("dp", d, 4)
	m.Run(1 * sim.Second)
	if len(seen) < 3 {
		t.Fatalf("Unit called %d times, want several", len(seen))
	}
	for i, it := range seen {
		if it != int64(i) {
			t.Fatalf("Unit iterations = %v, want 0,1,2,...", seen)
		}
	}
}

func TestPipelineThroughputBottleneck(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	m.SetLevel(hmp.Little, 0)
	pl := &workload.Pipeline{
		AppName:      "pipe",
		StageThreads: []int{1, 2, 1},
		StageWork:    []float64{0.1, 0.4, 0.1},
		QueueCap:     4,
		BigFactor:    1.0,
	}
	p := m.Spawn("pipe", pl, 4)
	// Pin everything to the little cluster at f0: 1 unit/s per core, one
	// thread per core → stage capacities 10, 5, 10 items/s → 5 items/s.
	for i := 0; i < 4; i++ {
		p.SetAffinity(i, hmp.MaskOf(i))
	}
	m.Run(20 * sim.Second)
	rate := float64(p.HB.Count()) / 20
	if math.Abs(rate-5) > 0.4 {
		t.Fatalf("pipeline rate = %v items/s, want ≈5 (middle-stage bound)", rate)
	}
	if pl.Items() != p.HB.Count() {
		t.Errorf("Items = %d, beats = %d, want equal", pl.Items(), p.HB.Count())
	}
}

func TestPipelineStageMapping(t *testing.T) {
	pl := &workload.Pipeline{
		AppName:      "pipe",
		StageThreads: []int{1, 3, 2},
		StageWork:    []float64{0.1, 0.1, 0.1},
		BigFactor:    1.5,
	}
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	m.Spawn("pipe", pl, 4)
	want := []int{0, 1, 1, 1, 2, 2}
	if pl.NumThreads() != len(want) {
		t.Fatalf("NumThreads = %d, want %d", pl.NumThreads(), len(want))
	}
	for i, w := range want {
		if got := pl.StageOf(i); got != w {
			t.Errorf("StageOf(%d) = %d, want %d", i, got, w)
		}
	}
	if pl.Stages() != 3 {
		t.Errorf("Stages = %d, want 3", pl.Stages())
	}
}

func TestPipelineNoStallUnderImbalance(t *testing.T) {
	// A fast producer into a slow consumer must not deadlock and must keep
	// making progress (bounded queues + blocked-producer resume).
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	pl := &workload.Pipeline{
		AppName:      "pipe",
		StageThreads: []int{2, 1},
		StageWork:    []float64{0.01, 0.5}, // producer 50× faster
		QueueCap:     2,
		BigFactor:    1.0,
	}
	p := m.Spawn("pipe", pl, 4)
	m.Run(10 * sim.Second)
	first := p.HB.Count()
	if first == 0 {
		t.Fatal("pipeline made no progress")
	}
	m.Run(10 * sim.Second)
	second := p.HB.Count() - first
	if second == 0 {
		t.Fatal("pipeline stalled in second half (deadlock?)")
	}
	if ratio := float64(second) / float64(first); ratio < 0.8 || ratio > 1.25 {
		t.Errorf("throughput drifted: %d then %d items", first, second)
	}
}

func TestPipelineValidation(t *testing.T) {
	pl := &workload.Pipeline{
		AppName:      "bad",
		StageThreads: []int{1, 1},
		StageWork:    []float64{0.1}, // mismatched
		BigFactor:    1,
	}
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	defer func() {
		if recover() == nil {
			t.Error("mismatched stage config should panic")
		}
	}()
	m.Spawn("bad", pl, 4)
}

func TestBenchmarkCatalog(t *testing.T) {
	all := workload.All()
	if len(all) != 6 {
		t.Fatalf("benchmarks = %d, want 6", len(all))
	}
	wantShorts := []string{"BL", "BO", "FA", "FE", "FL", "SW"}
	for i, b := range all {
		if b.Short != wantShorts[i] {
			t.Errorf("benchmark %d short = %s, want %s", i, b.Short, wantShorts[i])
		}
		prog := b.New(8)
		if prog.Name() != b.Name {
			t.Errorf("%s: program name %q", b.Short, prog.Name())
		}
		if prog.NumThreads() < 8 {
			t.Errorf("%s: %d threads, want ≥ 8", b.Short, prog.NumThreads())
		}
	}
	if _, ok := workload.ByShort("BL"); !ok {
		t.Error("ByShort(BL) failed")
	}
	if _, ok := workload.ByShort("XX"); ok {
		t.Error("ByShort(XX) should fail")
	}
	if got := workload.Shorts(); len(got) != 6 {
		t.Errorf("Shorts = %v", got)
	}
}

// TestLookupAllocatesNothing: ByShort reads the catalogue built once at
// package init; the scenario engine looks a benchmark up per
// arrival. All hands out a copy, so a caller writing into it cannot
// change later lookups.
func TestLookupAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { workload.ByShort("FE") }); n != 0 {
		t.Errorf("ByShort(FE) allocates %v times per call, want 0", n)
	}
	all := workload.All()
	all[3].Short = "XX"
	if b, ok := workload.ByShort("FE"); !ok || b.Name != "ferret" {
		t.Errorf("ByShort(FE) after writing All's copy = %q, %v; want ferret", b.Name, ok)
	}
}

func TestBlackscholesTraits(t *testing.T) {
	b, _ := workload.ByShort("BL")
	prog := b.New(8)
	// The defining trait: no speedup on big cores.
	if f := prog.SpeedFactor(0, hmp.Big); f != 1.0 {
		t.Errorf("blackscholes big factor = %v, want 1.0", f)
	}
	dp, ok := prog.(*workload.DataParallel)
	if !ok {
		t.Fatal("blackscholes should be data-parallel")
	}
	if dp.StartDelay == 0 {
		t.Error("blackscholes must have a heartbeat-less startup phase")
	}
}

func TestFerretTraits(t *testing.T) {
	b, _ := workload.ByShort("FE")
	prog := b.New(8)
	pl, ok := prog.(*workload.Pipeline)
	if !ok {
		t.Fatal("ferret should be a pipeline")
	}
	if pl.Stages() != 6 {
		t.Errorf("ferret stages = %d, want 6", pl.Stages())
	}
	if pl.NumThreads() != 4*8+2 {
		t.Errorf("ferret threads = %d, want 34", pl.NumThreads())
	}
}

func TestBenchmarksRunUnderDefaultPlacement(t *testing.T) {
	// Smoke test: every benchmark makes progress on the default machine.
	for _, b := range workload.All() {
		b := b
		t.Run(b.Short, func(t *testing.T) {
			plat := hmp.Default()
			m := sim.New(plat, sim.Config{})
			p := m.Spawn(b.Name, b.New(8), 8)
			m.Run(20 * sim.Second)
			if p.HB.Count() == 0 {
				t.Fatalf("%s emitted no heartbeats in 20 s", b.Short)
			}
		})
	}
}
