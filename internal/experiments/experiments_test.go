package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/hmp"
	"repro/internal/stats"
	"repro/internal/workload"
)

// sharedEnv is built once: profiling plus calibration dominate test time.
var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() { envVal, envErr = NewEnv(Quick()) })
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

func TestEnvCalibrationCached(t *testing.T) {
	e := testEnv(t)
	b := mustBench(t, "SW")
	// Goroutines asking at once all get the one cached calibration.
	var rates [3]float64
	var wg sync.WaitGroup
	for i := range rates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rates[i] = e.MaxRate(b)
		}()
	}
	wg.Wait()
	r1 := e.MaxRate(b)
	for _, r2 := range rates {
		if r1 <= 0 || r1 != r2 {
			t.Fatalf("MaxRate not cached or zero: %v vs %v", r1, r2)
		}
	}
	tgt := e.Target(b, 0.5)
	if tgt.Avg <= tgt.Min || tgt.Max <= tgt.Avg {
		t.Fatalf("bad target %+v", tgt)
	}
}

func mustBench(t *testing.T, short string) workload.Benchmark {
	t.Helper()
	b, ok := workload.ByShort(short)
	if !ok {
		t.Fatalf("unknown benchmark %s", short)
	}
	return b
}

// TestSingleAppShapes asserts the paper's qualitative Figure 5.1 results on
// a benchmark subset: every managed version clearly beats the baseline, and
// the static optimal beats HARS on blackscholes (the wrong-r0 effect).
func TestSingleAppShapes(t *testing.T) {
	e := testEnv(t)
	rows := RunSingleApp(e, SingleAppOptions{
		TargetFrac: 0.50,
		Benchmarks: []string{"BL", "SW"},
	})
	for _, row := range rows {
		base := row.Results["Baseline"].PP
		if base <= 0 {
			t.Fatalf("%s: baseline PP = %v", row.Bench.Short, base)
		}
		for _, v := range []string{"SO", "HARS-I", "HARS-E", "HARS-EI"} {
			rel := row.Results[v].PP / base
			if rel < 1.5 {
				t.Errorf("%s %s: rel perf/watt = %.2f, want clearly above baseline", row.Bench.Short, v, rel)
			}
		}
		// Every version satisfies most of the target.
		for _, v := range Fig51Versions {
			if np := row.Results[v].NormPerf; np < 0.7 {
				t.Errorf("%s %s: norm perf %.2f, want ≥ 0.7", row.Bench.Short, v, np)
			}
		}
	}
	// The wrong-r0 effect: SO ≥ HARS-E on blackscholes.
	for _, row := range rows {
		if row.Bench.Short != "BL" {
			continue
		}
		so := row.Results["SO"].PP
		he := row.Results["HARS-E"].PP
		if so < he*0.95 {
			t.Errorf("BL: SO PP %.3f should be ≥ HARS-E PP %.3f (wrong-r0 effect)", so, he)
		}
	}
}

func TestFig51ReportRenders(t *testing.T) {
	e := testEnv(t)
	rep := singleAppReport(e, SingleAppOptions{TargetFrac: 0.5, Benchmarks: []string{"SW"}},
		"Figure 5.1 (subset)")
	out := rep.String()
	for _, want := range []string{"SW", "GM", "Baseline", "HARS-EI"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestFig53ShapeOnSubset(t *testing.T) {
	e := testEnv(t)
	// Use the full driver but at one target only (its own GM over all six
	// benchmarks would be slow; RunFig53 runs them in parallel).
	pts := RunFig53(e, 0.50)
	if len(pts) != len(Fig53Distances) {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].RelPP != 1.0 {
		t.Errorf("d=1 point must normalize to 1.0, got %v", pts[0].RelPP)
	}
	// Efficiency at the largest d should not be below d=1 (larger explored
	// space finds at-least-as-good states), and overhead must grow.
	last := pts[len(pts)-1]
	if last.RelPP < 0.95 {
		t.Errorf("rel PP at d=9 = %.3f, want ≥ ~1", last.RelPP)
	}
	if last.CPUUtilPct <= pts[0].CPUUtilPct {
		t.Errorf("manager CPU util should grow with d: %.3f%% → %.3f%%",
			pts[0].CPUUtilPct, last.CPUUtilPct)
	}
	if last.CPUUtilPct > 10 {
		t.Errorf("manager CPU util at d=9 = %.2f%%, want small (paper: <6%%)", last.CPUUtilPct)
	}
}

func TestMultiAppShapes(t *testing.T) {
	e := testEnv(t)
	// Case 4 (BO+FL), the paper's behaviour-graph case.
	base := e.RunMultiApp([2]string{"BO", "FL"}, "Baseline", 0.50)
	cons := e.RunMultiApp([2]string{"BO", "FL"}, "CONS-I", 0.50)
	mpe := e.RunMultiApp([2]string{"BO", "FL"}, "MP-HARS-E", 0.50)
	if base.Eff <= 0 {
		t.Fatal("baseline efficiency zero")
	}
	if cons.Eff <= base.Eff {
		t.Errorf("CONS-I eff %.4f should beat baseline %.4f", cons.Eff, base.Eff)
	}
	if mpe.Eff <= base.Eff*1.2 {
		t.Errorf("MP-HARS-E eff %.4f should clearly beat baseline %.4f", mpe.Eff, base.Eff)
	}
	// Both apps must stay reasonably close to their targets under MP-HARS.
	for i, r := range mpe.PerApp {
		if r.NormPerf < 0.6 {
			t.Errorf("MP-HARS-E app %d norm perf %.2f, want ≥ 0.6", i, r.NormPerf)
		}
	}
	// Traces exist for the managed versions, not for the baseline.
	if len(mpe.Traces[0]) == 0 || len(cons.Traces[1]) == 0 {
		t.Error("managed versions must record traces")
	}
	if len(base.Traces[0]) != 0 {
		t.Error("baseline should not record traces")
	}
}

func TestBehaviourReportRenders(t *testing.T) {
	e := testEnv(t)
	rep := Fig56(e)
	out := rep.String()
	for _, want := range []string{"Figure 5.6", "HPS", "B_Core", "L_Freq"} {
		if !strings.Contains(out, want) {
			t.Errorf("behaviour report missing %q", want)
		}
	}
	if len(rep.Series) < 10 {
		t.Errorf("behaviour report has %d series, want ≥ 10 (two apps)", len(rep.Series))
	}
}

func TestTable31Report(t *testing.T) {
	e := testEnv(t)
	rep := Table31(e)
	out := rep.String()
	if !strings.Contains(out, "Table 3.1") {
		t.Error("missing title")
	}
	// Spot-check the T=8 row: TB=6 TL=2 CBU=4 CLU=2 at r=1.5.
	found := false
	for _, row := range rep.Table.Rows {
		if row[0] == "8" {
			found = true
			if row[2] != "6" || row[3] != "2" || row[4] != "4" || row[5] != "2" {
				t.Errorf("T=8 row = %v", row)
			}
		}
	}
	if !found {
		t.Error("T=8 row missing")
	}
}

func TestTable43Report(t *testing.T) {
	rep := Table43(nil)
	if len(rep.Table.Rows) != 18 {
		t.Fatalf("Table 4.3 has %d rows, want 18", len(rep.Table.Rows))
	}
	out := rep.String()
	for _, want := range []string{"Underperf", "Overperf", "FREEZE", "INC", "DEC"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4.3 report missing %q", want)
		}
	}
}

func TestPowerProfileReport(t *testing.T) {
	e := testEnv(t)
	rep := PowerProfile(e)
	if len(rep.Table.Rows) != 9+6 {
		t.Fatalf("profile rows = %d, want 15 (9 big + 6 little levels)", len(rep.Table.Rows))
	}
	for _, row := range rep.Table.Rows {
		if row[4] == "n/a" {
			t.Errorf("missing R² in row %v", row)
		}
	}
}

func TestStateCpusetFallsBackToAll(t *testing.T) {
	e := testEnv(t)
	mask := hmp.State{}.Cpuset(e.Plat)
	if mask.Count() != e.Plat.TotalCores() {
		t.Errorf("empty state cpuset should fall back to all cores")
	}
}

func TestAblationShapes(t *testing.T) {
	e := testEnv(t)
	rep := Ablations(e)
	if len(rep.Table.Rows) != 9 {
		t.Fatalf("ablation rows = %d, want 9", len(rep.Table.Rows))
	}
	byKey := map[string]float64{}
	for _, row := range rep.Table.Rows {
		var pp float64
		if _, err := fmt.Sscanf(row[5], "%f", &pp); err != nil {
			t.Fatalf("bad pp cell %q", row[5])
		}
		byKey[row[0]+"/"+row[2]] = pp
	}
	// Online ratio learning must clearly beat the fixed r0 on blackscholes
	// at the tight target (the paper's wrong-r0 case).
	if byKey["ratio-learning/online ratio"] < byKey["ratio-learning/fixed r0=1.5 (paper)"]*1.2 {
		t.Errorf("ratio learning did not pay off: %v vs %v",
			byKey["ratio-learning/online ratio"], byKey["ratio-learning/fixed r0=1.5 (paper)"])
	}
	// Hierarchy-aware scheduling must at least match plain interleaving on
	// the pipeline, and both must beat chunk.
	chunk := byKey["scheduler/chunk (paper HARS-E)"]
	inter := byKey["scheduler/interleaved (paper HARS-EI)"]
	hier := byKey["scheduler/hierarchy-aware"]
	if inter < chunk*1.05 {
		t.Errorf("interleaving should beat chunk on ferret: %v vs %v", inter, chunk)
	}
	if hier < inter*0.93 {
		t.Errorf("hierarchy scheduling should be competitive with interleaving: %v vs %v", hier, inter)
	}
}

func TestExtendedSuiteShapes(t *testing.T) {
	e := testEnv(t)
	rep := ExtendedSuite(e)
	if len(rep.Table.Rows) != 11 { // 10 benchmarks + GM
		t.Fatalf("rows = %d, want 11", len(rep.Table.Rows))
	}
	// HARS-E must clearly beat the baseline on the extended GM too.
	gm := rep.Table.Rows[len(rep.Table.Rows)-1]
	var base, harse float64
	fmt.Sscanf(gm[1], "%f", &base)
	fmt.Sscanf(gm[2], "%f", &harse)
	if base != 1.0 {
		t.Fatalf("baseline GM = %v, want 1.0", base)
	}
	if harse < 1.8 {
		t.Fatalf("HARS-E extended GM = %v, want clearly above baseline", harse)
	}
}

func TestGeoMeanInReports(t *testing.T) {
	// Guard against regressions in the GM row arithmetic.
	vals := []float64{2, 8}
	if gm := stats.GeoMean(vals); gm != 4 {
		t.Fatalf("GeoMean = %v", gm)
	}
}
