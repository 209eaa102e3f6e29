package core

import (
	"testing"
	"testing/quick"

	"repro/internal/hmp"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestThreadClustersChunk(t *testing.T) {
	got := ThreadClusters(8, 4, Chunk)
	want := []bool{false, false, false, false, true, true, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chunk = %v, want %v (Fig 3.2a)", got, want)
		}
	}
}

func TestThreadClustersInterleaved(t *testing.T) {
	got := ThreadClusters(8, 4, Interleaved)
	want := []bool{false, true, false, true, false, true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleaved = %v, want %v (Fig 3.2b)", got, want)
		}
	}
}

func TestThreadClustersInterleavedUneven(t *testing.T) {
	got := ThreadClusters(8, 6, Interleaved)
	// 6 big slots spread over 8 threads: 2 gaps, roughly evenly placed.
	big := 0
	for _, b := range got {
		if b {
			big++
		}
	}
	if big != 6 {
		t.Fatalf("interleaved big count = %d, want 6", big)
	}
	// No more than 2 consecutive littles and at least one little in each
	// half for an even spread.
	if got[0] && got[4] {
		littleFirst, littleSecond := 0, 0
		for i := 0; i < 4; i++ {
			if !got[i] {
				littleFirst++
			}
			if !got[i+4] {
				littleSecond++
			}
		}
		if littleFirst == 0 || littleSecond == 0 {
			t.Fatalf("interleave not spread: %v", got)
		}
	}
}

// TestThreadClustersCountProperty: big count always equals clamped TB.
func TestThreadClustersCountProperty(t *testing.T) {
	f := func(t8, tb8 uint8, inter bool) bool {
		T := int(t8%32) + 1
		TB := int(tb8 % 40) // may exceed T: must clamp
		kind := Chunk
		if inter {
			kind = Interleaved
		}
		got := ThreadClusters(T, TB, kind)
		if len(got) != T {
			return false
		}
		big := 0
		for _, b := range got {
			if b {
				big++
			}
		}
		want := TB
		if want > T {
			want = T
		}
		return big == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestApplySchedule(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	prog := &workload.DataParallel{
		AppName: "a", Threads: 8, BigFactor: 1.5, Unit: workload.ConstUnit(0.5),
	}
	p := m.Spawn("a", prog, 4)
	asg := Assignment{TB: 6, TL: 2, CBU: 4, CLU: 2}
	ApplySchedule(p, asg, Chunk,
		DefaultCores(plat, hmp.Big, 4), DefaultCores(plat, hmp.Little, 4))
	littleMask := hmp.MaskOf(0, 1) // C_L,U = 2 of the 4 allocated
	bigMask := hmp.MaskOf(4, 5, 6, 7)
	for i := 0; i < 2; i++ {
		if got := p.Threads[i].Affinity(); got != littleMask {
			t.Errorf("thread %d mask = %08b, want little %08b", i, got, littleMask)
		}
	}
	for i := 2; i < 8; i++ {
		if got := p.Threads[i].Affinity(); got != bigMask {
			t.Errorf("thread %d mask = %08b, want big %08b", i, got, bigMask)
		}
	}
}

func TestApplyScheduleFallsBackWhenClusterEmpty(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	prog := &workload.DataParallel{
		AppName: "a", Threads: 4, BigFactor: 1.5, Unit: workload.ConstUnit(0.5),
	}
	p := m.Spawn("a", prog, 4)
	// Assignment wants big threads, but no big cores are allocated:
	// everything must land on little.
	asg := Assignment{TB: 2, TL: 2, CBU: 2, CLU: 2}
	ApplySchedule(p, asg, Chunk, nil, DefaultCores(plat, hmp.Little, 2))
	for i := 0; i < 4; i++ {
		if got := p.Threads[i].Affinity(); got != hmp.MaskOf(0, 1) {
			t.Errorf("thread %d mask = %08b, want little fallback", i, got)
		}
	}
}

func TestApplySchedulePanicsWithNoCores(t *testing.T) {
	plat := hmp.Default()
	m := sim.New(plat, sim.Config{})
	prog := &workload.DataParallel{
		AppName: "a", Threads: 2, BigFactor: 1.5, Unit: workload.ConstUnit(0.5),
	}
	p := m.Spawn("a", prog, 4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic with no cores at all")
		}
	}()
	ApplySchedule(p, Assignment{TB: 1, TL: 1, CBU: 1, CLU: 1}, Chunk, nil, nil)
}

func TestDefaultCores(t *testing.T) {
	plat := hmp.Default()
	if got := DefaultCores(plat, hmp.Big, 2); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Errorf("DefaultCores(big, 2) = %v", got)
	}
	if got := DefaultCores(plat, hmp.Little, 99); len(got) != 4 {
		t.Errorf("DefaultCores clamps to cluster size, got %v", got)
	}
	if got := DefaultCores(plat, hmp.Big, 0); len(got) != 0 {
		t.Errorf("DefaultCores(big, 0) = %v", got)
	}
}

func TestSchedulerKindString(t *testing.T) {
	if Chunk.String() != "chunk" || Interleaved.String() != "interleaved" {
		t.Error("SchedulerKind strings wrong")
	}
	if SchedulerKind(9).String() == "" {
		t.Error("unknown kind should render")
	}
}
