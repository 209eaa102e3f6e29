package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAssignTableRows(t *testing.T) {
	// Explicit rows of Table 3.1 with CB = CL = 4 and r = 1.5 (r·CB = 6).
	cases := []struct {
		T    int
		want Assignment
	}{
		{1, Assignment{TB: 1, CBU: 1}},                  // 0 < T ≤ CB
		{3, Assignment{TB: 3, CBU: 3}},                  // 0 < T ≤ CB
		{4, Assignment{TB: 4, CBU: 4}},                  // boundary T = CB
		{5, Assignment{TB: 5, CBU: 4}},                  // CB < T ≤ r·CB
		{6, Assignment{TB: 6, CBU: 4}},                  // boundary T = r·CB
		{8, Assignment{TB: 6, TL: 2, CBU: 4, CLU: 2}},   // r·CB < T ≤ r·CB + CL
		{10, Assignment{TB: 6, TL: 4, CBU: 4, CLU: 4}},  // boundary T = r·CB + CL
		{12, Assignment{TB: 8, TL: 4, CBU: 4, CLU: 4}},  // r·CB + CL < T (TB = ⌈6/10·12⌉)
		{20, Assignment{TB: 12, TL: 8, CBU: 4, CLU: 4}}, // ⌈6/10·20⌉ = 12
	}
	for _, c := range cases {
		got := Assign(c.T, 4, 4, 1.5)
		if got != c.want {
			t.Errorf("Assign(T=%d) = %+v, want %+v", c.T, got, c.want)
		}
	}
}

func TestAssignDegenerate(t *testing.T) {
	if got := Assign(0, 4, 4, 1.5); got != (Assignment{}) {
		t.Errorf("T=0: %+v", got)
	}
	if got := Assign(8, 0, 0, 1.5); got != (Assignment{}) {
		t.Errorf("no cores: %+v", got)
	}
	if got := Assign(8, 0, 4, 1.5); got != (Assignment{TL: 8, CLU: 4}) {
		t.Errorf("big-less: %+v", got)
	}
	if got := Assign(2, 0, 4, 1.5); got != (Assignment{TL: 2, CLU: 2}) {
		t.Errorf("big-less small T: %+v", got)
	}
	if got := Assign(8, 4, 0, 1.5); got != (Assignment{TB: 8, CBU: 4}) {
		t.Errorf("little-less: %+v", got)
	}
	if got := Assign(-1, 4, 4, 1.5); got != (Assignment{}) {
		t.Errorf("negative T: %+v", got)
	}
}

func TestAssignRLessThanOne(t *testing.T) {
	// r < 1: little cores are the faster ones; the derivation is symmetric,
	// so the little cluster fills first.
	got := Assign(8, 4, 4, 1/1.5)
	want := Assign(8, 4, 4, 1.5)
	if got.TB != want.TL || got.TL != want.TB || got.CBU != want.CLU || got.CLU != want.CBU {
		t.Errorf("r<1 not symmetric: got %+v, mirror of %+v", got, want)
	}
}

// TestAssignInvariants is a property test: threads are conserved, used cores
// never exceed allocations or thread counts.
func TestAssignInvariants(t *testing.T) {
	f := func(t8, cb8, cl8 uint8, r16 uint16) bool {
		T := int(t8%64) + 1
		CB := int(cb8 % 5)
		CL := int(cl8 % 5)
		if CB+CL == 0 {
			CB = 1
		}
		r := 0.25 + float64(r16%800)/100 // 0.25 .. 8.24
		a := Assign(T, CB, CL, r)
		if a.TB+a.TL != T {
			return false
		}
		if a.TB < 0 || a.TL < 0 {
			return false
		}
		if a.CBU > CB || a.CLU > CL {
			return false
		}
		if a.CBU > a.TB || a.CLU > a.TL {
			return false
		}
		if a.TB > 0 && a.CBU == 0 {
			return false
		}
		if a.TL > 0 && a.CLU == 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// bruteForceTF finds the true optimal completion time over all TB splits.
func bruteForceTF(T, CB, CL int, sb, sl float64) float64 {
	best := math.Inf(1)
	for tb := 0; tb <= T; tb++ {
		tl := T - tb
		if (tb > 0 && CB == 0) || (tl > 0 && CL == 0) {
			continue
		}
		a := Assignment{TB: tb, TL: tl, CBU: min(tb, CB), CLU: min(tl, CL)}
		_, _, tf := a.CompletionTime(T, sb, sl)
		if tf < best {
			best = tf
		}
	}
	return best
}

// TestAssignNearOptimal checks Table 3.1 against brute force. The table's
// ceil in the last row follows the continuous balance point and can be one
// thread off the discrete optimum; with one-core clusters a single thread is
// a large relative step, so the admissible gap is one thread's worth of work
// on the smallest cluster.
func TestAssignNearOptimal(t *testing.T) {
	f := func(t8, cb8, cl8, r8 uint8) bool {
		T := int(t8%40) + 1
		CB := int(cb8%4) + 1
		CL := int(cl8%4) + 1
		r := 1.0 + float64(r8%20)/10 // 1.0 .. 2.9
		sl := 1.0
		sb := r * sl
		a := Assign(T, CB, CL, r)
		_, _, tf := a.CompletionTime(T, sb, sl)
		best := bruteForceTF(T, CB, CL, sb, sl)
		w := 1.0 / float64(T)
		slack := w / (float64(CB) * sb) // one misplaced thread on the big cluster
		return tf <= best+slack+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAssignExactlyOptimalInTableRegime(t *testing.T) {
	// In rows 1–3 (T ≤ r·CB + CL) the table is exactly optimal.
	f := func(t8, cb8, cl8, r8 uint8) bool {
		CB := int(cb8%4) + 1
		CL := int(cl8%4) + 1
		r := 1.0 + float64(r8%20)/10
		maxT := int(r*float64(CB)) + CL
		T := int(t8)%maxT + 1
		sl := 1.0
		sb := r * sl
		a := Assign(T, CB, CL, r)
		_, _, tf := a.CompletionTime(T, sb, sl)
		best := bruteForceTF(T, CB, CL, sb, sl)
		return tf <= best*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCompletionTime(t *testing.T) {
	// 6 threads on 4 big cores (speed 3) + 2 on 2 little (speed 1.625):
	// w = 1/8, tB = 6/8/(4·3) = 0.0625, tL = (1/8)/1.625 ≈ 0.0769.
	a := Assignment{TB: 6, TL: 2, CBU: 4, CLU: 2}
	tb, tl, tf := a.CompletionTime(8, 3, 1.625)
	if math.Abs(tb-0.0625) > 1e-9 {
		t.Errorf("tB = %v", tb)
	}
	if math.Abs(tl-1.0/8/1.625) > 1e-9 {
		t.Errorf("tL = %v", tl)
	}
	if tf != tl {
		t.Errorf("tF = %v, want tL", tf)
	}
	// Degenerates.
	if _, _, tf := (Assignment{}).CompletionTime(8, 3, 1); !math.IsInf(tf, 1) {
		t.Errorf("empty assignment tF = %v, want +Inf", tf)
	}
	if _, _, tf := (Assignment{TB: 1, CBU: 1}).CompletionTime(0, 3, 1); !math.IsInf(tf, 1) {
		t.Errorf("T=0 tF = %v, want +Inf", tf)
	}
}
