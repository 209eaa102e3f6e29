package hmp

import (
	"testing"
	"testing/quick"
)

// TestValidateBounds: the core and OPP bounds are inclusive — a board with
// exactly MaxCores cores and MaxOPPs levels per cluster validates, one more
// of either does not.
func TestValidateBounds(t *testing.T) {
	board := func(big, little, opps int) *Platform {
		p := Default()
		p.Clusters[Big].Cores, p.Clusters[Little].Cores = big, little
		grid := make([]OPP, opps)
		for i := range grid {
			grid[i] = OPP{KHz: 800_000 + 10_000*i, MilliVolt: 900}
		}
		p.Clusters[Big].OPPs = grid
		return p
	}
	if err := board(32, 32, MaxOPPs).Validate(); err != nil {
		t.Fatalf("board at the bounds rejected: %v", err)
	}
	for name, p := range map[string]*Platform{
		"33+32 cores": board(33, 32, 9),
		"1+64 cores":  board(1, 64, 9),
		"65+1 cores":  board(MaxCores+1, 1, 9),
		"33 big OPPs": board(4, 4, MaxOPPs+1),
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", name)
		}
	}
}

func TestDefaultPlatformValidates(t *testing.T) {
	p := Default()
	if err := p.Validate(); err != nil {
		t.Fatalf("Default platform invalid: %v", err)
	}
	if got := p.TotalCores(); got != 8 {
		t.Fatalf("TotalCores = %d, want 8", got)
	}
	if p.Clusters[Big].Levels() != 9 {
		t.Errorf("big levels = %d, want 9 (0.8-1.6 GHz step 0.1)", p.Clusters[Big].Levels())
	}
	if p.Clusters[Little].Levels() != 6 {
		t.Errorf("little levels = %d, want 6 (0.8-1.3 GHz step 0.1)", p.Clusters[Little].Levels())
	}
	if r := p.R0(); r != 1.5 {
		t.Errorf("R0 = %v, want 1.5", r)
	}
}

func TestCPUNumbering(t *testing.T) {
	p := Default()
	if p.FirstCPU(Little) != 0 || p.FirstCPU(Big) != 4 {
		t.Fatalf("FirstCPU little=%d big=%d, want 0 and 4", p.FirstCPU(Little), p.FirstCPU(Big))
	}
	for cpu := 0; cpu < 8; cpu++ {
		k := p.ClusterOf(cpu)
		wantK := Little
		if cpu >= 4 {
			wantK = Big
		}
		if k != wantK {
			t.Errorf("ClusterOf(%d) = %v, want %v", cpu, k, wantK)
		}
		if got := p.CPU(k, cpu-p.FirstCPU(k)); got != cpu {
			t.Errorf("CPU/FirstCPU round trip broke for %d: got %d", cpu, got)
		}
	}
}

func TestNominalSpeed(t *testing.T) {
	p := Default()
	// A little core at the baseline frequency retires 1.0 units/s.
	if got := p.NominalSpeed(Little, 0); got != 1.0 {
		t.Errorf("little speed at f0 = %v, want 1.0", got)
	}
	// A big core at 1.6 GHz retires 1.5 * 2.0 = 3.0 units/s.
	if got := p.NominalSpeed(Big, p.Clusters[Big].MaxLevel()); got != 3.0 {
		t.Errorf("big speed at max = %v, want 3.0", got)
	}
	// Speed is monotone in frequency level.
	for k := ClusterKind(0); k < NumClusters; k++ {
		for lv := 1; lv <= p.Clusters[k].MaxLevel(); lv++ {
			if p.NominalSpeed(k, lv) <= p.NominalSpeed(k, lv-1) {
				t.Errorf("speed not monotone for %v at level %d", k, lv)
			}
		}
	}
}

func TestClampLevel(t *testing.T) {
	p := Default()
	c := &p.Clusters[Big]
	if c.ClampLevel(-3) != 0 {
		t.Error("ClampLevel(-3) != 0")
	}
	if c.ClampLevel(100) != c.MaxLevel() {
		t.Error("ClampLevel(100) != MaxLevel")
	}
}

func TestStateValid(t *testing.T) {
	p := Default()
	max := MaxState(p)
	if !max.Valid(p) {
		t.Fatal("MaxState must be valid")
	}
	if max.TotalCores() != 8 {
		t.Errorf("MaxState.TotalCores = %d, want 8", max.TotalCores())
	}
	bad := State{BigCores: 9, LittleCores: -1, BigLevel: 99, LittleLevel: -5}
	if bad.Valid(p) {
		t.Error("clearly invalid state reported valid")
	}
	zero := State{}
	if zero.Valid(p) {
		t.Error("zero-core state must be invalid")
	}
}

// TestDistanceMetricAxioms checks the Manhattan distance is a metric:
// identity, symmetry, and the triangle inequality.
func TestDistanceMetricAxioms(t *testing.T) {
	gen := func(a, b, c, d uint8) State {
		return State{
			BigCores:    int(a % 5),
			LittleCores: int(b % 5),
			BigLevel:    int(c % 9),
			LittleLevel: int(d % 6),
		}
	}
	f := func(a1, a2, a3, a4, b1, b2, b3, b4, c1, c2, c3, c4 uint8) bool {
		x, y, z := gen(a1, a2, a3, a4), gen(b1, b2, b3, b4), gen(c1, c2, c3, c4)
		if Distance(x, x) != 0 {
			return false
		}
		if Distance(x, y) != Distance(y, x) {
			return false
		}
		if Distance(x, y) < 0 {
			return false
		}
		if Distance(x, y) == 0 && x != y {
			return false
		}
		return Distance(x, z) <= Distance(x, y)+Distance(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllStates(t *testing.T) {
	p := Default()
	all := AllStates(p, 1)
	// (5*5 - 1) core combinations × 9 big levels × 6 little levels.
	want := (5*5 - 1) * 9 * 6
	if len(all) != want {
		t.Fatalf("AllStates = %d states, want %d", len(all), want)
	}
	seen := make(map[State]bool, len(all))
	for _, s := range all {
		if !s.Valid(p) {
			t.Fatalf("AllStates produced invalid state %+v", s)
		}
		if seen[s] {
			t.Fatalf("AllStates produced duplicate state %+v", s)
		}
		seen[s] = true
	}
	strided := AllStates(p, 2)
	if len(strided) >= len(all) {
		t.Error("freqStride=2 did not reduce the sweep")
	}
}

func TestPerfScore(t *testing.T) {
	p := Default()
	max := MaxState(p)
	// perfScore = 4*1.5*2.0 + 4*1.625 = 12 + 6.5 = 18.5
	if got := max.PerfScore(p, p.R0()); got != 18.5 {
		t.Errorf("PerfScore(max) = %v, want 18.5", got)
	}
	min := State{BigCores: 0, LittleCores: 1}
	if got := min.PerfScore(p, p.R0()); got != 1.0 {
		t.Errorf("PerfScore(1 little @ f0) = %v, want 1.0", got)
	}
	// Score is monotone when adding a core or raising a level.
	s := State{BigCores: 1, LittleCores: 1, BigLevel: 2, LittleLevel: 2}
	for _, better := range []State{
		s.WithCores(Big, 2), s.WithCores(Little, 2),
		s.WithLevel(Big, 3), s.WithLevel(Little, 3),
	} {
		if better.PerfScore(p, p.R0()) <= s.PerfScore(p, p.R0()) {
			t.Errorf("PerfScore not monotone: %+v vs %+v", better, s)
		}
	}
}

func TestCPUMask(t *testing.T) {
	m := MaskOf(0, 3, 7)
	if !m.Has(0) || !m.Has(3) || !m.Has(7) || m.Has(1) {
		t.Fatalf("mask membership wrong: %b", m)
	}
	if m.Count() != 3 {
		t.Errorf("Count = %d, want 3", m.Count())
	}
	m = m.Clear(3)
	if m.Has(3) || m.Count() != 2 {
		t.Errorf("Clear failed: %b", m)
	}
	m = m.Set(5)
	if !m.Has(5) {
		t.Errorf("Set failed: %b", m)
	}
	if MaskOf(1, 2).Intersect(MaskOf(2, 3)) != MaskOf(2) {
		t.Error("Intersect wrong")
	}
}

func TestClusterMasks(t *testing.T) {
	p := Default()
	if AllCPUs(p) != MaskOf(0, 1, 2, 3, 4, 5, 6, 7) {
		t.Error("AllCPUs wrong")
	}
	if ClusterMask(p, Little) != MaskOf(0, 1, 2, 3) {
		t.Error("little ClusterMask wrong")
	}
	if ClusterMask(p, Big) != MaskOf(4, 5, 6, 7) {
		t.Error("big ClusterMask wrong")
	}
}

func TestClusterKindString(t *testing.T) {
	if Little.String() != "little" || Big.String() != "big" {
		t.Error("ClusterKind.String wrong")
	}
	if Little.Other() != Big || Big.Other() != Little {
		t.Error("Other wrong")
	}
	if ClusterKind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestStateAccessors(t *testing.T) {
	s := State{BigCores: 2, LittleCores: 3, BigLevel: 4, LittleLevel: 1}
	if s.WithCores(Big, 1).BigCores != 1 || s.WithLevel(Little, 0).LittleLevel != 0 {
		t.Error("With* wrong")
	}
	if s.String() == "" || s.Pretty(Default()) == "" {
		t.Error("String/Pretty empty")
	}
}
