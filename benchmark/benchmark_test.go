package main

import (
	"bytes"
	"debug/elf"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/scenario"
)

func TestGeneratorsDeterministicAndValid(t *testing.T) {
	for _, gen := range []func(int64) *scenario.Scenario{genSteady, genChurn, genIdle1k} {
		for seed := int64(1); seed <= 3; seed++ {
			var a, b bytes.Buffer
			if err := gen(seed).Encode(&a); err != nil {
				t.Fatal(err)
			}
			if err := gen(seed).Encode(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("seed %d: two generations differ", seed)
			}
			sc, err := scenario.Decode(bytes.NewReader(a.Bytes()))
			if err != nil {
				t.Fatalf("seed %d: generated spec does not decode: %v", seed, err)
			}
			if err := sc.Validate(); err != nil {
				t.Fatalf("seed %d: generated spec does not validate: %v", seed, err)
			}
		}
	}
}

// busyLoop burns CPU in a function the profile reader must find.
//
//go:noinline
func busyLoop(d time.Duration) uint64 {
	var x uint64 = 1
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var sink uint64

func TestProfileReaderAttributesBusyFunction(t *testing.T) {
	runtime.SetCPUProfileRate(profileHz)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	sink = busyLoop(300 * time.Millisecond)
	pprof.StopCPUProfile()

	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	table := []layer{{"busy", []string{"repro/benchmark.busyLoop", "main.busyLoop"}}}
	at := attribute(prof, table)
	if at.total < 20 {
		t.Fatalf("only %d samples in 300 ms at %d Hz", at.total, profileHz)
	}
	if at.self[0]+at.self[1] != at.total {
		t.Fatalf("self counts %v do not sum to the %d samples", at.self, at.total)
	}
	if share := float64(at.self[0]) / float64(at.total); share < 0.8 {
		t.Fatalf("busyLoop got %.0f%% of the samples, want most of them", 100*share)
	}
}

func TestAttributeChargesInnermostLayer(t *testing.T) {
	table := []layer{
		{"outer", []string{"pkg.Outer"}},
		{"inner", []string{"pkg.Inner"}},
	}
	prof := &cpuProfile{samples: []profSample{
		{count: 3, stack: []string{"pkg.leaf", "pkg.Inner.func1", "pkg.Outer", "main.main"}},
		{count: 2, stack: []string{"pkg.Outer", "main.main"}},
		{count: 1, stack: []string{"runtime.other"}},
	}}
	at := attribute(prof, table)
	want := attribution{total: 6, self: []int64{2, 3, 1}, cum: []int64{5, 3, 1}}
	if at.total != want.total || !equalInts(at.self, want.self) || !equalInts(at.cum, want.cum) {
		t.Fatalf("got %+v, want %+v", at, want)
	}
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLayerTableMatchesBinary fails when a function the layer table names
// is renamed or removed, instead of its time silently moving to "other":
// every pattern must match a function of this binary, and no function may
// belong to two layers.
func TestLayerTableMatchesBinary(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	f, err := elf.Open(exe)
	if err != nil {
		t.Skipf("not an ELF binary: %v", err)
	}
	defer f.Close()
	syms, err := f.Symbols()
	if err != nil {
		t.Skipf("no symbol table: %v", err)
	}
	hits := map[string]int{}
	for _, s := range syms {
		var owner string
		for _, l := range layerTable {
			if layerOf([]layer{l}, s.Name) < 0 {
				continue
			}
			if owner != "" {
				t.Errorf("%s belongs to both %s and %s", s.Name, owner, l.name)
			}
			owner = l.name
		}
		for _, l := range layerTable {
			for _, p := range l.patterns {
				if layerOf([]layer{{l.name, []string{p}}}, s.Name) == 0 {
					hits[p]++
				}
			}
		}
	}
	for _, l := range layerTable {
		for _, p := range l.patterns {
			if hits[p] == 0 {
				t.Errorf("layer %s: pattern %q matches no function", l.name, p)
			}
		}
	}
}

func TestHDQuantile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	if got := hdQuantile(xs, 0.5); math.Abs(got-5) > 1e-6 {
		t.Fatalf("median of 1..9 = %v, want 5", got)
	}
	if got := hdQuantile([]float64{3, 3, 3}, tailQuantile); math.Abs(got-3) > 1e-6 {
		t.Fatalf("quantile of a constant = %v, want 3", got)
	}
	if lo, hi := hdQuantile(xs, 0.5), hdQuantile(xs, tailQuantile); !(hi > lo && hi < 9) {
		t.Fatalf("p50 %v, p%g %v: want p50 < tail < max", lo, 100*tailQuantile, hi)
	}
	// Two neighbours at a gap trading places move the estimate by no more
	// than the change in the data, unlike a nearest-rank median of an even
	// count that jumps to the other side of the gap.
	a := []float64{1, 1.1, 1.2, 5, 9.9, 10}
	b := []float64{1, 1.1, 1.2, 5.5, 9.9, 10}
	if d := math.Abs(hdQuantile(a, 0.5) - hdQuantile(b, 0.5)); d > 0.5 {
		t.Fatalf("median moved %v for a 0.5 change", d)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 = quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Fatalf("quartiles(1,2,4) = %v %v %v", q1, med, q3)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the contract
// reads, in step with the tables the benchmark reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var doc struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct {
			Name string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, defaultSeconds %v", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the table %q", i, w.Name, workloads[i].name)
		}
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the table", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		e := endToEnd[i]
		if m.Name != e.name || m.Unit != e.unit || m.Better != better(e.higher) || m.Bound != e.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, table %+v", i, m, e)
		}
	}
	pl := perLayer()
	if len(doc.PerLayer) != len(pl) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d reported", len(doc.PerLayer), len(pl))
	}
	for i, m := range doc.PerLayer {
		if m.Name != pl[i].name || m.Unit != pl[i].unit || m.Better != better(pl[i].higher) {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, reported %+v", i, m, pl[i])
		}
	}
}

// TestSmokeRuns runs every workload for the shortest run (one cycle of its
// inputs) at seed 1, and one of them traced: every op must reproduce the
// checked-in digests and every metric must be reported.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		modes := []bool{false}
		if w.name == "fleet-churn" {
			modes = append(modes, true)
		}
		for _, traced := range modes {
			res, det, err := runOne(&w, 1, 0.01, traced)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !res.Correct || res.Failed != 0 || !det.Golden {
				t.Fatalf("%s traced=%v: correct=%v failed=%d golden=%v errors=%v",
					w.name, traced, res.Correct, res.Failed, det.Golden, det.Errors)
			}
			specs := endToEnd
			if traced {
				specs = perLayer()
			}
			if len(res.Metrics) != len(specs) {
				t.Fatalf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(specs))
			}
			for _, m := range specs {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Fatalf("%s: metric %s missing or with unit %q", w.name, m.name, v.Unit)
				}
				if !traced && !(v.Value > 0) {
					t.Errorf("%s: %s = %v, want a positive value", w.name, m.name, v.Value)
				}
			}
		}
	}
}
