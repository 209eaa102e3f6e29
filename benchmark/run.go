package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 7

// profileHz is the CPU profile sampling rate of a traced run.
const profileHz = 500

// tailQuantile is the quantile of the per-input op times op_tail_ms reports.
const tailQuantile = 0.85

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the line printed just before the result: what the run did, for
// the rounds, pair and compare modes and for anyone reading the output.
type detail struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Ops      int     `json:"ops"`
	Inputs   int     `json:"inputs"`
	// Wall-clock counterparts of the scaled CPU-time metrics, and the
	// reference kernel's median CPU time over the run.
	SetupWallS    []float64 `json:"setup_wall_s"`
	WallP50MS     float64   `json:"wall_op_p50_ms"`
	WallNodeSPerS float64   `json:"wall_sim_node_s_per_s"`
	RefS          float64   `json:"ref_kernel_s"`
	// TailBeyond counts the measured ops slower than op_tail_ms.
	TailBeyond int                `json:"tail_beyond"`
	Digests    []string           `json:"digests"`
	Golden     bool               `json:"golden_checked"`
	Errors     []string           `json:"errors,omitempty"`
	Counts     map[string]float64 `json:"counts_per_cycle"`
	Ratios     map[string]float64 `json:"ratios,omitempty"`
	GoMaxProcs int                `json:"gomaxprocs"`
}

//go:embed digests_seed1.json
var goldenJSON []byte

// goldenDigests returns the checked-in per-input digests of a workload for
// the given seed: seed 1 for the generated fleet workloads, every seed for
// paper-fig51, whose inputs the seed does not change.
func goldenDigests(workload string, seed int64) []string {
	var all map[string][]string
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		panic(fmt.Sprintf("digests_seed1.json: %v", err))
	}
	if seed != 1 && workload != "paper-fig51" {
		return nil
	}
	return all[workload]
}

// runner holds one run's state: the instance, every input's first result,
// and the failure tally.
type runner struct {
	inst   instance
	golden []string
	// first is every input's first correct result: its digest is the one
	// every later op of the input must reproduce, its counts are one
	// cycle's work.
	first map[int]opResult

	attempted, failed int
	errors            []string
}

// op runs input i once, checks its digest, and returns its result.
func (r *runner) op(i int) opResult {
	in := i % r.inst.inputs()
	res, err := r.inst.run(in)
	r.attempted++
	f, seen := r.first[in]
	switch {
	case err != nil:
		r.fail(fmt.Sprintf("input %d: %v", in, err))
	case r.golden != nil && (in >= len(r.golden) || fmt.Sprintf("%016x", res.digest) != r.golden[in]):
		r.fail(fmt.Sprintf("input %d: digest %016x differs from the checked-in one", in, res.digest))
	case seen && f.digest != res.digest:
		r.fail(fmt.Sprintf("input %d: digest %016x, an earlier op of it gave %016x", in, res.digest, f.digest))
	case !seen:
		r.first[in] = res
	}
	return res
}

func (r *runner) fail(msg string) {
	r.failed++
	if len(r.errors) < 8 {
		r.errors = append(r.errors, msg)
	}
}

// window is one measured stretch of ops.
type window struct {
	ops     []opSample
	refs    []float64       // reference kernel CPU time before the first op and after each op
	nodeS   map[int]float64 // input → simulated node-seconds per op
	profile []byte
}

// opQuantum is the time an input's ops fill in every cycle of inputs after
// the first: an input whose op is shorter runs several times per cycle, up
// to maxReps, so its median rests on many ops while a cycle still runs every
// long input once. With one op per cycle, the median op of paper-fig51 fell
// between its 3 ms and 15-60 ms inputs, four ops each, and moved by a tenth
// from run to run.
const (
	opQuantum = 0.05
	maxReps   = 8
)

// measure runs ops back to back (a closed loop with one client) until the
// deadline has passed and every input has run at least once, timing each op
// in process CPU time with the reference kernel run between ops. The first
// cycle runs every input once, in order; later cycles run each input as
// often as opQuantum sets, the repeats interleaved with the other inputs.
func (r *runner) measure(seconds float64) window {
	w := window{nodeS: map[int]float64{}, refs: []float64{refSeconds()}}
	n := r.inst.inputs()
	reps := make([]int, n)
	for i := range reps {
		reps[i] = 1
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for cycle := 0; ; cycle++ {
		for p := 0; p < maxReps; p++ {
			for in := 0; in < n; in++ {
				if p >= reps[in] {
					continue
				}
				if !time.Now().Before(deadline) && len(w.nodeS) == n {
					w.scale()
					return w
				}
				w.timeOp(r, in)
			}
		}
		if cycle == 0 {
			for j, o := range w.ops {
				sec := o.cpu * refNominal / w.refs[j+1]
				reps[o.input] = min(max(int(opQuantum/sec), 1), maxReps)
			}
		}
	}
}

// timeOp runs input in once and records its op and the reference timing
// after it.
func (w *window) timeOp(r *runner, in int) {
	o := opSample{input: in}
	a0 := allocBytes()
	c0, t0 := cpuSeconds(clockProcessCPU), time.Now()
	res := r.op(in)
	o.wall = time.Since(t0).Seconds()
	o.cpu = cpuSeconds(clockProcessCPU) - c0
	o.alloc = float64(allocBytes() - a0)
	w.refs = append(w.refs, refSeconds())
	w.nodeS[in] = res.counts[cNodeS]
	w.ops = append(w.ops, o)
}

// refSpan is how many reference timings on each side of an op estimate the
// host speed the op ran at: one timing is a few milliseconds and noisy, and
// the speed drifts over seconds.
const refSpan = 10

// scale sets every op's CPU time scaled to the reference host speed (see
// cpu.go), using the median reference timing around it.
func (w *window) scale() {
	for j := range w.ops {
		lo, hi := max(0, j-refSpan), min(len(w.refs), j+refSpan+2)
		w.ops[j].sec = w.ops[j].cpu * refNominal / median(w.refs[lo:hi])
	}
}

// cycleNodeS is one cycle of inputs' simulated node-seconds.
func (w *window) cycleNodeS() float64 {
	s := 0.0
	for _, v := range w.nodeS {
		s += v
	}
	return s
}

// inputMedians returns every input's median of one per-op value, in input
// order.
func inputMedians(ops []opSample, val func(opSample) float64) []float64 {
	per := map[int][]float64{}
	for _, o := range ops {
		per[o.input] = append(per[o.input], val(o))
	}
	keys := make([]int, 0, len(per))
	for k := range per {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]float64, 0, len(keys))
	for _, k := range keys {
		out = append(out, median(per[k]))
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runOne is one benchmark run of one workload: set up several times, then
// measure for the given seconds. A traced run measures half the time
// untraced and half under the CPU profiler, and reports the per-layer
// metrics instead of the end-to-end ones.
//
// Op times are per-input medians, so a run that stops part way through a
// cycle of inputs reports the same as one that stops at its end: throughput
// is one cycle's simulated node-seconds over the sum of its inputs' median
// times, and the latency quantiles are taken over the inputs' medians. The
// ops of one input repeat the same deterministic work, so their spread is
// host noise; the spread that matters to a user is between inputs.
func runOne(w *workloadDef, seed int64, seconds float64, traced bool) (result, detail, error) {
	r := &runner{first: map[int]opResult{}, golden: goldenDigests(w.name, seed)}
	det := detail{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		Golden: r.golden != nil, GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	// Set-up covers generating and encoding the inputs (or building the
	// experiments environment and calibrating) plus one untimed warm-up op.
	// The reference kernel runs between set-ups, so they are scaled by the
	// host's speed while they ran, not during the measured window.
	var setupCPU []float64
	setupRefs := []float64{refSeconds()}
	for k := 0; k < setupReps; k++ {
		c0, t0 := cpuSeconds(clockProcessCPU), time.Now()
		inst, err := w.setup(seed)
		if err != nil {
			return result{}, det, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		r.inst = inst
		r.op(0)
		setupCPU = append(setupCPU, cpuSeconds(clockProcessCPU)-c0)
		det.SetupWallS = append(det.SetupWallS, time.Since(t0).Seconds())
		setupRefs = append(setupRefs, refSeconds())
	}
	runtime.GC()
	var win window
	var thrUntraced float64
	if traced {
		half := r.measure(seconds / 2)
		thrUntraced = half.cycleNodeS() / sum(inputMedians(half.ops, opSec))
		runtime.SetCPUProfileRate(profileHz) // StartCPUProfile keeps this rate
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return result{}, det, err
		}
		win = r.measure(seconds / 2)
		pprof.StopCPUProfile()
		win.profile = buf.Bytes()
	} else {
		win = r.measure(seconds)
	}

	det.Ops = len(win.ops)
	det.Inputs = r.inst.inputs()
	det.Errors = r.errors
	cyc := make([]opResult, det.Inputs)
	var perCycle counts
	for in := 0; in < det.Inputs; in++ {
		if f, ok := r.first[in]; ok { // absent only when every op of it failed
			cyc[in] = f
			perCycle.add(f.counts)
			det.Digests = append(det.Digests, fmt.Sprintf("%016x", f.digest))
		}
	}
	det.Counts = map[string]float64{}
	for i, name := range countNames {
		det.Counts[name] = perCycle[i]
	}

	secs := inputMedians(win.ops, opSec)
	cycNodeS := win.cycleNodeS()
	tail := hdQuantile(secs, tailQuantile)
	for _, o := range win.ops {
		if o.sec > tail {
			det.TailBeyond++
		}
	}
	det.RefS = median(win.refs)
	walls := inputMedians(win.ops, func(o opSample) float64 { return o.wall })
	det.WallP50MS = 1000 * hdQuantile(walls, 0.5)
	det.WallNodeSPerS = cycNodeS / sum(walls)

	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	res.Correct = r.failed == 0 && len(r.first) == det.Inputs
	vals := map[string]float64{}
	specs := endToEnd
	if !traced {
		vals["setup_s"] = median(setupCPU) * refNominal / median(setupRefs)
		vals["sim_node_s_per_s"] = cycNodeS / sum(secs)
		vals["op_p50_ms"] = 1000 * hdQuantile(secs, 0.5)
		vals["op_tail_ms"] = 1000 * tail
		vals["peak_rss_mb"] = peakRSSMB()
		allocs := inputMedians(win.ops, func(o opSample) float64 { return o.alloc })
		vals["alloc_kb_per_node_s"] = sum(allocs) / 1024 / cycNodeS
	} else {
		specs = perLayer()
		prof, err := parseProfile(win.profile)
		if err != nil {
			return result{}, det, err
		}
		at := attribute(prof, layerTable)
		cpuS := float64(at.total) / profileHz
		share := func(n int64) float64 { return float64(n) / float64(max(at.total, 1)) }
		for i, name := range layerNames() {
			vals[name+".share"] = share(at.self[i])
			vals[name+".cum_share"] = share(at.cum[i])
		}
		vals["profile.cpu_s"] = cpuS
		vals["profile.samples"] = float64(at.total)
		var profiled counts // work done by the profiled ops
		for _, o := range win.ops {
			profiled.add(r.first[o.input].counts)
		}
		vals["sim.ns_per_node_s"] = 1e9 * cpuS / profiled[cNodeS]
		vals["trace_overhead_frac"] = 1 - cycNodeS/sum(secs)/thrUntraced
		for i, name := range countNames {
			vals[name] = perCycle[i]
		}
		for name, v := range r.inst.model(cyc) {
			vals[name] = v
		}
		// Ratios whose base is zero on some workload stay out of the
		// metrics (every traced run reports the same metric set) and go to
		// the detail.
		det.Ratios = map[string]float64{}
		ratio := func(name, l string, base float64) {
			if base > 0 {
				det.Ratios[name] = 1e9 * cpuS * vals[l+".cum_share"] / base
			}
		}
		ratio("scenario.trace.ns_per_byte", "scenario.trace", profiled[cTraceBytes])
		ratio("decision.ns_per_decision", "decision", profiled[cDecisions])
		ratio("core.search.ns_per_explored", "core.search", profiled[cCoreExplored])
	}
	for _, m := range specs {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	return res, det, nil
}

func opSec(o opSample) float64 { return o.sec }

// metricSpec describes one reported metric. bound is the share of the
// baseline median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricSpec struct {
	name, unit string
	higher     bool // higher is better
	bound      float64
}

// endToEnd lists the end-to-end metrics of an untraced run, as
// BENCHMARK.json does.
var endToEnd = []metricSpec{
	{"setup_s", "s", false, 0.25},
	{"sim_node_s_per_s", "node_s/s", true, 0.25},
	{"op_p50_ms", "ms", false, 0.25},
	{"op_tail_ms", "ms", false, 0.25},
	{"peak_rss_mb", "MB", false, 0.25},
	{"alloc_kb_per_node_s", "kB/node_s", false, 0.2},
}

// perLayer lists the metrics of a traced run, as BENCHMARK.json does:
// every layer's self and cumulative share of the sampled CPU time, the
// profile's totals, the work counts of one cycle of inputs, and the
// modelled results, which must repeat exactly for a given input (0 where a
// workload has none).
func perLayer() []metricSpec {
	var out []metricSpec
	for _, name := range layerNames() {
		out = append(out, metricSpec{name: name + ".share", unit: "frac"},
			metricSpec{name: name + ".cum_share", unit: "frac"})
	}
	out = append(out,
		metricSpec{name: "profile.cpu_s", unit: "s"},
		metricSpec{name: "profile.samples", unit: "count"},
		metricSpec{name: "sim.ns_per_node_s", unit: "ns/node_s"},
		metricSpec{name: "trace_overhead_frac", unit: "frac"})
	for i, name := range countNames {
		// Simulated node-seconds is set by the workload, not measured; it
		// stays in the detail line as the base of sim.ns_per_node_s.
		if i != cNodeS {
			out = append(out, metricSpec{name: name, unit: "count"})
		}
	}
	return append(out,
		metricSpec{name: "model.energy_j", unit: "J"},
		metricSpec{name: "model.slo_miss_frac", unit: "frac"},
		metricSpec{name: "model.pp_gm_hars_ei", unit: "ratio", higher: true})
}
