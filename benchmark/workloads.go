package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// workloadDef is one benchmark input family. setup builds the inputs from
// the seed (the program under test only ever sees the generated JSON bytes
// or the paper's fixed inputs); the instance it returns runs the ops.
type workloadDef struct {
	name  string
	setup func(seed int64) (instance, error)
}

// instance runs the ops of one set-up workload. Op i runs input i mod
// inputs(); every run of an input must reproduce the same digest.
type instance interface {
	inputs() int
	run(i int) (opResult, error)
	// model returns the workload's modelled results over whole input
	// cycles, given the per-input results of one cycle.
	model(cycle []opResult) map[string]float64
}

// opResult is what one op reports: its correctness digest, how much
// simulated node time it covered, and the work counts of every layer.
type opResult struct {
	digest uint64
	counts counts
	energy float64
	sloMis int
	sloSmp int
	pp     float64 // fig51: normalized perf/watt of the run
}

// Work counts, exact for a given input. The names are the per-layer metric
// names the traced run reports.
const (
	cSamples = iota
	cTraceBytes
	cDecisions
	cAdmissions
	cReplacements
	cMigrations
	cGated
	cQueued
	cCrashes
	cRecoveries
	cTransferFails
	cCoreSearches
	cCoreExplored
	cMPHARSSearches
	cThreadMigrations
	cNodeS
	nCounts
)

var countNames = [nCounts]string{
	"scenario.samples", "scenario.trace_bytes",
	"fleet.decisions", "fleet.admissions", "fleet.replacements", "fleet.migrations", "fleet.gated", "fleet.queued",
	"fault.crashes", "fault.recoveries", "fault.transfer_fails",
	"core.searches", "core.explored", "mphars.searches",
	"sim.thread_migrations", "sim.node_s",
}

type counts [nCounts]float64

func (c *counts) add(o counts) {
	for i := range c {
		c[i] += o[i]
	}
}

// workloads is the benchmark's workload table, in BENCHMARK.json's order;
// README.md says why each exists. The pool sizes trade the seed-to-seed
// spread of the fleets' medians against memory: a 1024-node spec is large,
// and its ops vary little between seeds.
var workloads = []workloadDef{
	{name: "fleet-steady", setup: fleetSetup(genSteady, 16)},
	{name: "fleet-churn", setup: fleetSetup(genChurn, 16)},
	{name: "fleet-idle-1k", setup: fleetSetup(genIdle1k, 8)},
	{name: "paper-fig51", setup: fig51Setup},
}

func workloadByName(name string) (*workloadDef, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// fleetSetup returns the set-up of a generated fleet workload: pool specs
// drawn from the seed, each generated and encoded to JSON bytes. Ops cycle
// through the pool, so the medians average over many specs and the seed
// changes the inputs without moving them.
func fleetSetup(gen func(seed int64) *scenario.Scenario, pool int) func(int64) (instance, error) {
	return func(seed int64) (instance, error) {
		rng := rand.New(rand.NewSource(seed))
		fi := &fleetInstance{}
		for i := 0; i < pool; i++ {
			var buf bytes.Buffer
			if err := gen(rng.Int63()).Encode(&buf); err != nil {
				return nil, err
			}
			fi.specs = append(fi.specs, buf.Bytes())
		}
		return fi, nil
	}
}

// board returns the board of node i: the default board on even nodes, a
// little-heavy one (2 big + 6 little) on odd ones. Every node embeds its own
// board, as a hand-written heterogeneous fleet spec does.
func board(i int) *hmp.Platform {
	p := hmp.Default()
	if i%2 == 1 {
		p.Clusters[hmp.Big].Cores = 2
		p.Clusters[hmp.Little].Cores = 6
	}
	return p
}

// shuffledBenches returns n bench tags, each of the six used equally often
// (up to the remainder), in a seeded order: the seed moves which node runs
// what, not how much of each bench the fleet runs.
func shuffledBenches(rng *rand.Rand, n int) []string {
	shorts := workload.Shorts()
	out := make([]string, n)
	for i := range out {
		out[i] = shorts[i%len(shorts)]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// genSteady: 16 hars-e nodes, each with one pinned 8-thread app at a
// fractional target, no migration, no faults.
func genSteady(seed int64) *scenario.Scenario {
	rng := rand.New(rand.NewSource(seed))
	const nodes = 16
	sc := &scenario.Scenario{
		Name: fmt.Sprintf("fleet-steady-%d", seed), Seed: seed,
		Manager: scenario.ManagerHARSE, DurationMS: 20000, SampleEveryMS: 500,
		MigrateEveryMS: -1,
	}
	benches := shuffledBenches(rng, nodes)
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("node%d", i)
		sc.Nodes = append(sc.Nodes, scenario.NodeSpec{Name: name, Platform: board(i)})
		sc.Apps = append(sc.Apps, scenario.AppSpec{
			Name: fmt.Sprintf("app%d", i), Bench: benches[i], Threads: 8,
			TargetFrac: 0.4 + 0.3*rng.Float64(), Node: name,
		})
	}
	return sc
}

// genChurn: 8 mphars-i nodes (thermal on the even ones) under SLO-aware
// placement, fed by Poisson arrival streams with explicit targets, with
// checkpoint costs, random crashes, transfer failures and decision tracing.
func genChurn(seed int64) *scenario.Scenario {
	rng := rand.New(rand.NewSource(seed))
	const nodes = 8
	sc := &scenario.Scenario{
		Name: fmt.Sprintf("fleet-churn-%d", seed), Seed: seed,
		Manager: scenario.ManagerMPHARSI, DurationMS: 20000, SampleEveryMS: 100,
		AdaptEvery: 2, Placement: "slo-aware", MigrateEveryMS: 100,
		Checkpoint: &scenario.CheckpointSpec{FreezeUS: 2000, PerMBUS: 100, SizeMB: 64},
		Faults: &fault.Spec{
			Seed:              rng.Int63n(1 << 30),
			CheckpointEveryMS: 500,
			TransferFailProb:  0.1,
			Random:            &fault.RandomCrashes{RatePerMin: 6, DownMS: 1500},
		},
		Decisions: &scenario.DecisionSpec{Enabled: true, Keep: 4096},
	}
	for i := 0; i < nodes; i++ {
		ns := scenario.NodeSpec{Name: fmt.Sprintf("node%d", i), Platform: board(i)}
		if i%2 == 0 {
			ns.Thermal = &thermal.Spec{Enabled: true}
		}
		sc.Nodes = append(sc.Nodes, ns)
	}
	// One stream per bench, so every seed runs the same bench mix; the seed
	// draws the arrival times and which bench gets which lifetime.
	benches := shuffledBenches(rng, 6)
	for i, bench := range benches {
		sc.Arrivals = append(sc.Arrivals, scenario.ArrivalStream{
			Name:       fmt.Sprintf("s%d", i),
			Seed:       1 + rng.Int63n(1<<30),
			Rate:       []scenario.RateStep{{PerS: 1.5}},
			LifetimeMS: 1500 + 400*int64(i),
			Bench:      bench,
			Threads:    4,
			Target:     &scenario.TargetSpec{Min: 40, Avg: 50, Max: 60},
			SLO:        &scenario.SLOSpec{TargetHPS: 0.5, SlackMS: 150},
		})
	}
	return sc
}

// genIdle1k: 1024 unmanaged nodes, 8 pinned apps on distinct nodes arriving
// in the first half, and two crashes (4/min over the 30 s run) of app-free
// nodes at random times.
//
// The crashes are drawn here rather than by the fault layer's Poisson
// process, whose crashes land on any node: a crash of a pinned app's node
// queues the app until the node heals, and the admission retries collapse
// the event core to one barrier per tick for the whole down time. That
// made the odd spec three times slower than the rest, and moved op_tail_ms
// by a third between seeds.
func genIdle1k(seed int64) *scenario.Scenario {
	rng := rand.New(rand.NewSource(seed))
	const nodes, apps, crashes = 1024, 8, 2
	const downMS = 3000
	sc := &scenario.Scenario{
		Name: fmt.Sprintf("fleet-idle-1k-%d", seed), Seed: seed,
		Manager: scenario.ManagerNone, DurationMS: 30000, SampleEveryMS: 1000,
		Faults: &fault.Spec{Seed: rng.Int63n(1 << 30)},
	}
	for i := 0; i < nodes; i++ {
		sc.Nodes = append(sc.Nodes, scenario.NodeSpec{Name: fmt.Sprintf("node%d", i), Platform: board(i)})
	}
	// Distinct nodes: the first apps hold the apps, the rest crash.
	picked := rng.Perm(nodes)[:apps+crashes]
	benches := shuffledBenches(rng, apps)
	for i := 0; i < apps; i++ {
		sc.Apps = append(sc.Apps, scenario.AppSpec{
			Name: fmt.Sprintf("app%d", i), Bench: benches[i], Threads: 8, TargetFrac: 0.5,
			StartMS: rng.Int63n(sc.DurationMS / 2),
			Node:    fmt.Sprintf("node%d", picked[i]),
		})
	}
	for _, n := range picked[apps:] {
		sc.Faults.Crashes = append(sc.Faults.Crashes, fault.Crash{
			Node: fmt.Sprintf("node%d", n), AtMS: rng.Int63n(sc.DurationMS), DownMS: downMS,
		})
	}
	return sc
}

// fleetInstance replays generated scenario specs through the public entry
// points, exactly as hars-scenario does: decode, run, summarize.
type fleetInstance struct {
	specs [][]byte
}

func (fi *fleetInstance) inputs() int { return len(fi.specs) }

// byteCounter is the trace sink: it counts the trace bytes and drops them.
type byteCounter int64

func (b *byteCounter) Write(p []byte) (int, error) {
	*b += byteCounter(len(p))
	return len(p), nil
}

func (fi *fleetInstance) run(i int) (opResult, error) {
	sc, err := scenario.Decode(bytes.NewReader(fi.specs[i%len(fi.specs)]))
	if err != nil {
		return opResult{}, err
	}
	var sink byteCounter
	res, err := scenario.Run(sc, scenario.Options{Trace: &sink})
	if err != nil {
		return opResult{}, err
	}
	d := &res.Decisions
	var c counts
	c[cSamples] = float64(res.Samples)
	c[cTraceBytes] = float64(sink)
	c[cDecisions] = float64(d.Decisions)
	c[cAdmissions] = float64(d.Admissions)
	c[cReplacements] = float64(d.Replacements)
	c[cMigrations] = float64(d.Migrations)
	c[cGated] = float64(d.GatedMigrations)
	c[cQueued] = float64(res.QueuedArrivals)
	c[cCrashes] = float64(res.NodeCrashes)
	c[cRecoveries] = float64(res.Recoveries)
	c[cTransferFails] = float64(res.TransferFails)
	for _, m := range res.Managers {
		c[cCoreSearches] += float64(m.Searches())
		c[cCoreExplored] += float64(m.ExploredTotal())
	}
	for _, n := range res.Nodes {
		if n.MP != nil {
			c[cMPHARSSearches] += float64(n.MP.Searches())
		}
	}
	for _, a := range res.Apps {
		c[cThreadMigrations] += float64(a.Migrations)
	}
	c[cNodeS] = float64(len(res.Nodes)) * float64(sc.DurationMS) / 1000
	return opResult{
		digest: digestOf(res.TraceDigest, math.Float64bits(res.EnergyJ),
			uint64(res.SLOMisses), uint64(res.SLOSamples),
			d.Decisions, uint64(d.Admissions), uint64(d.Replacements), uint64(d.Migrations),
			uint64(d.GatedMigrations), uint64(d.NoCandidate)),
		counts: c,
		energy: res.EnergyJ,
		sloMis: res.SLOMisses,
		sloSmp: res.SLOSamples,
	}, nil
}

func (fi *fleetInstance) model(cycle []opResult) map[string]float64 {
	var e float64
	var mis, smp int
	for _, r := range cycle {
		e += r.energy
		mis += r.sloMis
		smp += r.sloSmp
	}
	out := map[string]float64{"model.energy_j": e / float64(len(cycle))}
	if smp > 0 {
		out["model.slo_miss_frac"] = float64(mis) / float64(smp)
	}
	return out
}

// fig51Instance runs Figure 5.1's thirty runs (six benches × five versions)
// serially through the experiments.Env methods, in the figure's order.
type fig51Instance struct {
	env     *experiments.Env
	benches []workload.Benchmark
}

// fig51Setup builds the quick-scale environment and calibrates every
// bench's maximum rate. The seed does not apply: the paper fixes the inputs.
func fig51Setup(int64) (instance, error) {
	env, err := experiments.NewEnv(experiments.Quick())
	if err != nil {
		return nil, err
	}
	fi := &fig51Instance{env: env, benches: workload.All()}
	for _, b := range fi.benches {
		env.MaxRate(b)
	}
	return fi, nil
}

func (fi *fig51Instance) inputs() int { return len(fi.benches) * len(experiments.Fig51Versions) }

func (fi *fig51Instance) run(i int) (opResult, error) {
	i %= fi.inputs()
	e := fi.env
	b := fi.benches[i/len(experiments.Fig51Versions)]
	tgt := e.Target(b, 0.50)
	var r experiments.RunResult
	var c counts
	switch v := experiments.Fig51Versions[i%len(experiments.Fig51Versions)]; v {
	case "Baseline":
		r = e.RunBaseline(b, tgt)
	case "SO":
		r = e.RunStaticOptimal(b, tgt)
	default:
		var ds []core.Decision
		r, ds = e.RunHARSTraced(b, tgt, core.Config{Version: harsVersion(v)})
		c[cCoreSearches] = float64(len(ds))
		for _, d := range ds {
			c[cCoreExplored] += float64(d.Explored)
		}
	}
	c[cNodeS] = sim.Seconds(e.Scale.RunTime)
	return opResult{digest: runDigest(r, tgt), counts: c, pp: r.PP}, nil
}

func harsVersion(v string) core.Version {
	switch v {
	case "HARS-I":
		return core.HARSI
	case "HARS-E":
		return core.HARSE
	}
	return core.HARSEI
}

// model computes pp_gm_hars_ei exactly as experiments.Fig51 does: the
// geometric mean over benches of HARS-EI's perf/watt relative to Baseline.
func (fi *fig51Instance) model(cycle []opResult) map[string]float64 {
	nv := len(experiments.Fig51Versions)
	var rel []float64
	for bi := range fi.benches {
		base, ei := cycle[bi*nv].pp, cycle[bi*nv+nv-1].pp
		r := 0.0
		if base > 0 {
			r = ei / base
		}
		rel = append(rel, r)
	}
	return map[string]float64{"model.pp_gm_hars_ei": stats.GeoMean(rel)}
}

func runDigest(r experiments.RunResult, tgt heartbeat.Target) uint64 {
	st := r.State
	return digestOf(math.Float64bits(r.Rate), math.Float64bits(r.NormPerf), math.Float64bits(r.PowerW),
		math.Float64bits(r.PP), math.Float64bits(r.OverheadUtil), math.Float64bits(tgt.Avg),
		uint64(st.BigCores), uint64(st.LittleCores), uint64(st.BigLevel), uint64(st.LittleLevel))
}

// digestOf is FNV-64a over the words' little-endian bytes.
func digestOf(words ...uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return h.Sum64()
}
