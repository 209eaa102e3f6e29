// Package experiments regenerates every table and figure of the paper's
// evaluation (Chapter 5) on the simulated platform: the single-application
// perf/watt comparisons (Figures 5.1, 5.2), the explored-space sweep
// (Figure 5.3), the multi-application comparison (Figure 5.4), the behaviour
// graphs of case 4 (Figures 5.5–5.7), the thread-assignment table
// (Table 3.1), the decision table (Table 4.3), and the power-model
// calibration of §5.1.1.
//
// Each driver returns a Report holding the same rows/series the paper plots.
// Absolute numbers differ from the paper (the substrate is a simulator, not
// the authors' board); the shapes are what the reproduction checks.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/oracle"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Scale selects experiment durations: Quick for tests and benchmarks, Full
// for the command-line regeneration run. Every scale runs each benchmark
// with one thread per core of the board (the paper's n) and the default
// heartbeat window, and discards calibSkip of warm-up before measuring a
// calibration.
type Scale struct {
	CalibTime   sim.Time // calibration run length
	RunTime     sim.Time // measured run length per version
	MeasureFrom sim.Time // start of the measurement window within a run

	OracleWarmup     sim.Time
	OracleMeasure    sim.Time
	OracleFreqStride int

	Profile power.ProfileConfig
}

// calibSkip is the calibration warm-up discarded before measuring.
const calibSkip = 12 * sim.Second

// Quick returns the test/benchmark scale.
func Quick() Scale {
	return Scale{
		CalibTime:   25 * sim.Second,
		RunTime:     70 * sim.Second,
		MeasureFrom: 25 * sim.Second,

		OracleWarmup:     10 * sim.Second,
		OracleMeasure:    12 * sim.Second,
		OracleFreqStride: 3,

		Profile: power.ProfileConfig{
			Utils:  []float64{0.5, 1.0},
			RunPer: 600 * sim.Millisecond,
		},
	}
}

// Full returns the paper-scale configuration used by cmd/hars-experiments.
func Full() Scale {
	return Scale{
		CalibTime:   35 * sim.Second,
		RunTime:     180 * sim.Second,
		MeasureFrom: 30 * sim.Second,

		OracleWarmup:     12 * sim.Second,
		OracleMeasure:    16 * sim.Second,
		OracleFreqStride: 1,

		Profile: power.ProfileConfig{},
	}
}

// Env bundles the shared fixtures of all experiments: the platform, the
// ground-truth power model (the "board"), the fitted linear power model (the
// offline calibration of §5.1.1), and a cache of per-benchmark maximum
// achievable rates.
type Env struct {
	Plat  *hmp.Platform
	GT    *power.GroundTruth
	Model *power.LinearModel
	Scale Scale

	mu       sync.Mutex
	maxRates map[string]float64
}

// NewEnv builds an environment: it profiles the board with the
// microbenchmark sweep and fits the linear power models.
func NewEnv(scale Scale) (*Env, error) {
	plat := hmp.Default()
	gt := power.DefaultGroundTruth(plat)
	model, err := power.ProfileAndFit(plat, gt, scale.Profile)
	if err != nil {
		return nil, fmt.Errorf("experiments: power profiling: %w", err)
	}
	return &Env{
		Plat:     plat,
		GT:       gt,
		Model:    model,
		Scale:    scale,
		maxRates: make(map[string]float64),
	}, nil
}

// RunResult is one measured run of one version of one workload mix.
type RunResult struct {
	Rate         float64 // heartbeats/s over the measurement window
	NormPerf     float64 // min(g, rate)/g
	PowerW       float64 // average watts over the measurement window
	PP           float64 // normalized perf per watt
	OverheadUtil float64 // runtime-manager CPU utilization (fraction)
	State        hmp.State
}

// newMachine builds a machine wired to the environment's ground truth.
func (e *Env) newMachine() *sim.Machine {
	return sim.New(e.Plat, sim.Config{Power: e.GT})
}

// board returns a fresh copy of the default board with big and little
// cores per cluster: the fleet sweeps mix the stock board with a tiny
// (1 + 1) and a little-heavy (2 + 6) one.
func board(big, little int) *hmp.Platform {
	p := hmp.Default()
	p.Clusters[hmp.Big].Cores = big
	p.Clusters[hmp.Little].Cores = little
	return p
}

// static configures oracle.Measure, the one static run, for benchmark b on
// the environment's board, one thread per core, measured over the measure
// window that follows warmup.
func (e *Env) static(b workload.Benchmark, tgt heartbeat.Target, warmup, measure sim.Time) oracle.Options {
	return oracle.Options{
		Plat:       e.Plat,
		Power:      e.GT,
		NewProgram: func() sim.Program { return b.New(e.Plat.TotalCores()) },
		Target:     tgt,
		Warmup:     warmup,
		Measure:    measure,
		FreqStride: e.Scale.OracleFreqStride,
	}
}

// MaxRate measures (and caches) the maximum achievable heartbeat rate of a
// benchmark: the static run (oracle.Measure) at maximum core count and
// frequency under the Linux HMP scheduler, measured from calibSkip to
// CalibTime. The scenario engine's calibration calls the same run with its
// own window. MaxRate calibrates while holding the cache lock, so each
// benchmark is calibrated once however many goroutines ask.
func (e *Env) MaxRate(b workload.Benchmark) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.maxRates[b.Short]
	if !ok {
		o := e.static(b, heartbeat.Target{}, calibSkip, e.Scale.CalibTime-calibSkip)
		r = oracle.Measure(o, hmp.MaxState(e.Plat)).Rate
		e.maxRates[b.Short] = r
	}
	return r
}

// Target builds the paper's performance target for a benchmark: frac of the
// maximum achievable rate, ±5% of that maximum.
func (e *Env) Target(b workload.Benchmark, frac float64) heartbeat.Target {
	return heartbeat.TargetAround(e.MaxRate(b), frac, 0.05)
}

// measure runs the machine for the scale's run time and reports rate/power
// over the measurement window for the given process.
func (e *Env) measure(m *sim.Machine, p *sim.Process, tgt heartbeat.Target) RunResult {
	m.RunUntil(e.Scale.MeasureFrom)
	e0, t0 := m.EnergyJ(), m.Now()
	m.RunUntil(e.Scale.RunTime)
	dt := sim.Seconds(m.Now() - t0)
	res := RunResult{
		Rate:         p.HB.RateOver(t0, m.Now()),
		PowerW:       (m.EnergyJ() - e0) / dt,
		OverheadUtil: m.OverheadUtil(),
	}
	res.NormPerf = heartbeat.NormalizedPerf(tgt, res.Rate)
	if res.PowerW > 0 {
		res.PP = res.NormPerf / res.PowerW
	}
	return res
}

// runStatic is a version run held statically in state st: the static run
// over the scale's measurement window, MeasureFrom to RunTime. No manager
// runs, so its overhead is zero.
func (e *Env) runStatic(b workload.Benchmark, tgt heartbeat.Target, st hmp.State) RunResult {
	r := oracle.Measure(e.static(b, tgt, e.Scale.MeasureFrom, e.Scale.RunTime-e.Scale.MeasureFrom), st)
	return RunResult{Rate: r.Rate, NormPerf: r.NormPerf, PowerW: r.PowerW, PP: r.PP, State: st}
}

// RunBaseline runs the baseline version: maximum core count and frequency,
// scheduled by the Linux HMP scheduler.
func (e *Env) RunBaseline(b workload.Benchmark, tgt heartbeat.Target) RunResult {
	return e.runStatic(b, tgt, hmp.MaxState(e.Plat))
}

// RunStaticOptimal sweeps all states offline (the SO version), then runs the
// chosen state statically under the Linux HMP scheduler.
func (e *Env) RunStaticOptimal(b workload.Benchmark, tgt heartbeat.Target) RunResult {
	best := oracle.FindStatic(e.static(b, tgt, e.Scale.OracleWarmup, e.Scale.OracleMeasure))
	return e.runStatic(b, tgt, best.State)
}

// RunHARS runs one of the HARS versions with optional manager overrides.
func (e *Env) RunHARS(b workload.Benchmark, tgt heartbeat.Target, cfg core.Config) RunResult {
	res, _ := e.RunHARSTraced(b, tgt, cfg)
	return res
}

// RunHARSTraced is RunHARS plus the manager's adaptation-decision trace.
func (e *Env) RunHARSTraced(b workload.Benchmark, tgt heartbeat.Target, cfg core.Config) (RunResult, []core.Decision) {
	m := e.newMachine()
	p := m.Spawn(b.Name, b.New(e.Plat.TotalCores()), heartbeat.DefaultWindow)
	mgr := core.NewManager(m, p, core.NewEstimatorSet(m.Platform(), e.Model), tgt, cfg)
	m.AddDaemon(mgr)
	res := e.measure(m, p, tgt)
	res.State = mgr.State()
	return res, mgr.Decisions()
}

// parallelFor runs fn(i) for i in [0, n) on one worker per CPU.
func parallelFor(n int, fn func(i int)) { pool(n, runtime.NumCPU(), fn) }

// pool runs fn(i) for i in [0, n) on at most workers goroutines (serially,
// in index order, when workers <= 1). Each fn writes only its own slot, so
// results do not depend on the width.
func pool(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// Report is the renderable outcome of one experiment.
type Report struct {
	Title  string
	Table  stats.Table
	Series []*stats.Series
	Charts []string
	Notes  []string
}

// String renders the report for the terminal.
func (r *Report) String() string {
	out := fmt.Sprintf("== %s ==\n", r.Title)
	if len(r.Table.Header) > 0 {
		out += r.Table.String()
	}
	for _, c := range r.Charts {
		out += c
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}
