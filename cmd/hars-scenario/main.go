// Command hars-scenario replays a declarative dynamic-event scenario — a
// JSON script of application arrivals and departures, core hotplug, DVFS
// capping, target changes, and workload phase changes — on the simulated
// platform (or, when the scenario declares nodes, on a whole fleet of
// heterogeneous machines sharing one clock), emitting a deterministic
// per-sample metric trace.
//
// Usage:
//
//	hars-scenario -in scenario.json [-trace out.csv] [-strict] [-check]
//	              [-summary json] [-trace-decisions] [-lockstep]
//	              [-cpuprofile cpu.pb.gz] [-memprofile mem.pb.gz]
//	hars-scenario -in scenario.json -counterfactual <id> [-counterfactual-k 3]
//	hars-scenario -gen -seed 7 [-manager mphars-i] [-apps 3] [-events 6]
//	              [-duration 20000] [-nodes 3] [-placement coolest] [-faults]
//	              [-decisions] [-write scenario.json] [-trace out.csv]
//
// The trace goes to stdout unless -trace names a file; the run summary goes
// to stderr. With -summary json the summary is emitted instead as a single
// machine-readable JSON document on stdout (byte-stable field order, so
// summaries can be diffed and checksummed), and the trace is discarded
// unless -trace names a file. Replaying the same scenario always produces
// byte-identical trace output (the FNV-64a digest printed in the summary
// witnesses it), so traces can be diffed across runs and machines.
//
// -trace-decisions arms decision tracing (exactly as if the scenario
// declared an enabled "decisions" block): every scheduler decision is
// emitted as a "d" trace line with its full scored candidate set. The
// always-on decision rollup (counts, margins, queue-wait histogram) is in
// every summary regardless. -counterfactual <id> forks the run at that
// recorded decision instead: each top-k alternative candidate is forced in
// a full replay and the per-alternative regret (ΔSLO misses, Δenergy,
// Δmoves) is reported in the chosen -summary format.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/hmp"
	"repro/internal/scenario"
)

func main() {
	in := flag.String("in", "", "scenario JSON to replay")
	gen := flag.Bool("gen", false, "generate a random scenario instead of reading one")
	seed := flag.Int64("seed", 1, "generator seed (-gen)")
	manager := flag.String("manager", scenario.ManagerMPHARSI, "generated scenario's manager kind (-gen)")
	apps := flag.Int("apps", 3, "generated scenario's maximum app count (-gen)")
	events := flag.Int("events", 6, "generated scenario's dynamic event count (-gen)")
	duration := flag.Int64("duration", 20000, "generated scenario's duration in ms (-gen)")
	nodes := flag.Int("nodes", 0, "generated scenario's fleet size; 0 = classic single machine (-gen)")
	placement := flag.String("placement", "", "generated fleet's placement policy; empty draws one from the seed (-gen)")
	genFaults := flag.Bool("faults", false, "generated fleet scenario gets a seeded faults block (-gen)")
	write := flag.String("write", "", "save the generated scenario JSON here (-gen)")
	tracePath := flag.String("trace", "", "trace output file (default stdout)")
	strict := flag.Bool("strict", false, "verify runtime invariants after every action and sample")
	check := flag.Bool("check", false, "verify runtime invariants after every tick (debug; slower)")
	summary := flag.String("summary", "text", `summary format: "text" (stderr) or "json" (stdout, byte-stable field order)`)
	lockstep := flag.Bool("lockstep", false, "force the reference strategy, every machine stepped tick by tick, instead of the event-driven core and its windows (bit-identical; for benchmarking)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	workers := flag.Int("workers", 1, "shard node advancement between fleet decision points across N goroutines (any width is byte-identical)")
	traceDecisions := flag.Bool("trace-decisions", false, "emit every scheduler decision as a d trace line with its scored candidate set")
	counterfactual := flag.Int64("counterfactual", -1, "fork the run at this decision ID: force each top-k alternative and report per-alternative regret")
	counterfactualK := flag.Int("counterfactual-k", 3, "how many alternative candidates -counterfactual replays")
	genDecisions := flag.Bool("decisions", false, "generated scenario gets an enabled decisions block (-gen)")
	flag.Parse()
	if *summary != "text" && *summary != "json" {
		fmt.Fprintf(os.Stderr, "unknown -summary format %q (want text or json)\n", *summary)
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Written on the way out of every non-error return path; fatal()
		// exits without profiles, which is fine — those runs produced no
		// result worth profiling.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	var sc *scenario.Scenario
	switch {
	case *gen:
		sc = scenario.Generate(*seed, scenario.GenConfig{
			Manager:    *manager,
			MaxApps:    *apps,
			Events:     *events,
			DurationMS: *duration,
			Nodes:      *nodes,
			Placement:  *placement,
			Faults:     *genFaults,
			Decisions:  *genDecisions,
		})
		if *write != "" {
			f, err := os.Create(*write)
			if err != nil {
				fatal(err)
			}
			if err := sc.Encode(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *write)
		}
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		sc, err = scenario.Decode(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "need -in <scenario.json> or -gen (see -h)")
		os.Exit(2)
	}

	var trace io.Writer = os.Stdout
	if *summary == "json" {
		// The JSON summary owns stdout; the trace digest is still computed
		// (and reported) over the discarded bytes.
		trace = io.Discard
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		trace = f
	}

	opts := scenario.Options{
		Trace: trace, Strict: *strict, CheckEveryTick: *check,
		Lockstep: *lockstep, Workers: *workers,
		TraceDecisions: *traceDecisions,
	}

	if *counterfactual >= 0 {
		cf, err := scenario.RunCounterfactual(sc, opts, uint64(*counterfactual), *counterfactualK)
		if err != nil {
			fatal(err)
		}
		if *summary == "json" {
			if err := writeJSONCounterfactual(os.Stdout, sc, cf); err != nil {
				fatal(err)
			}
			return
		}
		writeTextCounterfactual(os.Stderr, sc, cf)
		return
	}

	res, err := scenario.Run(sc, opts)
	if err != nil {
		fatal(err)
	}

	if *summary == "json" {
		if err := writeJSONSummary(os.Stdout, sc, res); err != nil {
			fatal(err)
		}
		return
	}

	w := os.Stderr
	fleetRun := len(sc.Nodes) > 0
	if fleetRun {
		fmt.Fprintf(w, "scenario %s: manager %s, %d nodes (placement %s), %d apps, %d events, %d ms\n",
			sc.Name, sc.Manager, len(res.Nodes), res.Placement, len(sc.Apps), len(sc.Events), sc.DurationMS)
	} else {
		fmt.Fprintf(w, "scenario %s: manager %s, %d apps, %d events, %d ms\n",
			sc.Name, sc.Manager, len(sc.Apps), len(sc.Events), sc.DurationMS)
	}
	for _, a := range res.Apps {
		status := "ran to end"
		switch {
		case a.Skipped:
			status = "dropped (queued, never admitted)"
		case a.Departed:
			status = "departed"
		}
		if a.Queued && !a.Skipped {
			status += ", queued first"
		}
		where := ""
		if fleetRun && a.Node != "" {
			where = fmt.Sprintf(" node=%s moves=%d", a.Node, a.NodeMigrations)
			if a.MigrationDelayUS > 0 {
				where += fmt.Sprintf(" frozen=%dµs", a.MigrationDelayUS)
			}
		}
		if a.SLOSamples > 0 {
			where += fmt.Sprintf(" slo-miss=%d/%d", a.SLOMisses, a.SLOSamples)
		}
		if a.Recoveries > 0 {
			where += fmt.Sprintf(" recoveries=%d lost=%dµs", a.Recoveries, a.LostWorkUS)
		}
		fmt.Fprintf(w, "  %-8s beats=%-6d work=%-10.1f migrations=%-5d %s%s\n",
			a.Name, a.Beats, a.Work, a.Migrations, status, where)
	}
	fmt.Fprintf(w, "energy %.1f J, overhead %d µs, %d samples, trace digest %016x\n",
		res.EnergyJ, res.OverheadUS, res.Samples, res.TraceDigest)
	if fleetRun {
		fmt.Fprintf(w, "fleet: %d arrivals queued, %d dropped, %d node migrations (%d µs frozen)\n",
			res.QueuedArrivals, res.DroppedArrivals, res.NodeMigrations, res.MigrationDelayUS)
	}
	d := &res.Decisions
	fmt.Fprintf(w, "decisions: %d (%d admissions, %d re-placements, %d migrations, %d gated, %d no-candidate), mean margin %.3f\n",
		d.Decisions, d.Admissions, d.Replacements, d.Migrations, d.GatedMigrations, d.NoCandidate, d.MeanMargin())
	fmt.Fprintf(w, "queue wait: %s (mean %.0f µs, max %d µs)\n",
		d.QueueWait.String(), d.QueueWait.MeanUS(), d.QueueWait.MaxUS)
	if n := len(res.DecisionRecords); n > 0 || res.DecisionsDropped > 0 {
		fmt.Fprintf(w, "decision trace: %d records kept, %d dropped\n", n, res.DecisionsDropped)
	}
	if res.SLOSamples > 0 {
		fmt.Fprintf(w, "slo: %d misses over %d scored samples (%.1f%%)\n",
			res.SLOMisses, res.SLOSamples, 100*float64(res.SLOMisses)/float64(res.SLOSamples))
	}
	if sc.Faults != nil {
		fmt.Fprintf(w, "faults: %d node crashes, %d recoveries, %d µs work lost, %d transfer failures, %d apps stranded\n",
			res.NodeCrashes, res.Recoveries, res.LostWorkUS, res.TransferFails, res.StrandedApps)
	}
	for _, nr := range res.Nodes {
		if fleetRun {
			fmt.Fprintf(w, "node %s (%s): energy %.1f J, overhead %d µs, online mask %x\n",
				nr.Name, nr.Manager, nr.EnergyJ, nr.OverheadUS, uint64(nr.Machine.OnlineMask()))
		}
		for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
			fmt.Fprintf(w, "  %s: level %d, cap %d, %d/%d cores online\n",
				k, nr.Machine.Level(k), nr.Machine.LevelCap(k),
				nr.Machine.OnlineCount(k), nr.Machine.Platform().Clusters[k].Cores)
		}
		if gov := nr.Thermal; gov != nil {
			spec := gov.Spec()
			fmt.Fprintf(w, "  thermal: trip %.1f°C / throttle %.1f°C / release %.1f°C, %d throttles (%d trips), %d releases\n",
				spec.TripC, spec.ThrottleC, spec.ReleaseC, gov.Throttles(), gov.Trips(), gov.Releases())
			for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
				fmt.Fprintf(w, "    %s: %.1f°C now, %.1f°C peak\n", k, gov.TempC(k), gov.PeakC(k))
			}
		}
	}
}

// The -summary json schema. Struct field order IS the output field order
// (encoding/json serializes in declaration order), which is what makes the
// documents byte-stable across runs: identical runs produce identical
// bytes, so summaries can be diffed and checksummed like traces.
type appSummary struct {
	Name             string  `json:"name"`
	Beats            int64   `json:"beats"`
	Work             float64 `json:"work"`
	Migrations       int     `json:"migrations"`
	NodeMigrations   int     `json:"node_migrations"`
	MigrationDelayUS int64   `json:"migration_delay_us"`
	Node             string  `json:"node,omitempty"`
	Queued           bool    `json:"queued"`
	Skipped          bool    `json:"skipped"`
	Departed         bool    `json:"departed"`
	SLOSamples       int     `json:"slo_samples,omitempty"`
	SLOMisses        int     `json:"slo_misses,omitempty"`
	Recoveries       int     `json:"recoveries,omitempty"`
	LostWorkUS       int64   `json:"lost_work_us,omitempty"`
	Stranded         bool    `json:"stranded,omitempty"`
}

type thermalSummary struct {
	BigTempC    float64 `json:"big_temp_c"`
	LittleTempC float64 `json:"little_temp_c"`
	BigPeakC    float64 `json:"big_peak_c"`
	LittlePeakC float64 `json:"little_peak_c"`
	Throttles   int     `json:"throttles"`
	Trips       int     `json:"trips"`
	Releases    int     `json:"releases"`
}

type nodeSummary struct {
	Name        string          `json:"name,omitempty"`
	Manager     string          `json:"manager"`
	EnergyJ     float64         `json:"energy_j"`
	OverheadUS  int64           `json:"overhead_us"`
	OnlineMask  string          `json:"online_mask"`
	BigLevel    int             `json:"big_level"`
	LittleLevel int             `json:"little_level"`
	BigCap      int             `json:"big_cap"`
	LittleCap   int             `json:"little_cap"`
	Thermal     *thermalSummary `json:"thermal,omitempty"`
}

type runSummary struct {
	Scenario         string  `json:"scenario"`
	Manager          string  `json:"manager"`
	Placement        string  `json:"placement,omitempty"`
	DurationMS       int64   `json:"duration_ms"`
	Samples          int     `json:"samples"`
	TraceDigest      string  `json:"trace_digest"`
	EnergyJ          float64 `json:"energy_j"`
	OverheadUS       int64   `json:"overhead_us"`
	QueuedArrivals   int     `json:"queued_arrivals"`
	DroppedArrivals  int     `json:"dropped_arrivals"`
	NodeMigrations   int     `json:"node_migrations"`
	MigrationDelayUS int64   `json:"migration_delay_us"`
	SLOSamples       int     `json:"slo_samples"`
	SLOMisses        int     `json:"slo_misses"`
	// The fault rollups carry omitempty so fault-free summaries stay
	// byte-identical to pre-fault ones.
	NodeCrashes   int             `json:"node_crashes,omitempty"`
	Recoveries    int             `json:"recoveries,omitempty"`
	LostWorkUS    int64           `json:"lost_work_us,omitempty"`
	TransferFails int             `json:"transfer_fails,omitempty"`
	StrandedApps  int             `json:"stranded_apps,omitempty"`
	Decisions     decisionSummary `json:"decisions"`
	Apps          []appSummary    `json:"apps"`
	Nodes         []nodeSummary   `json:"nodes"`
}

// decisionSummary is the always-on decision rollup: present in every
// summary whether or not decision tracing ran, so policy sweeps can diff
// decision counts without paying for candidate recording.
type decisionSummary struct {
	Decisions       uint64  `json:"decisions"`
	Admissions      int     `json:"admissions"`
	Replacements    int     `json:"replacements"`
	Migrations      int     `json:"migrations"`
	GatedMigrations int     `json:"gated_migrations"`
	NoCandidate     int     `json:"no_candidate"`
	MeanMargin      float64 `json:"mean_margin"`
	QueueWait       string  `json:"queue_wait"`
	QueueWaitMeanUS float64 `json:"queue_wait_mean_us"`
	QueueWaitMaxUS  int64   `json:"queue_wait_max_us"`
	// Traced/Dropped describe the opt-in decision trace; both stay zero
	// (and Dropped is omitted) when tracing is off.
	Traced  int   `json:"traced"`
	Dropped int64 `json:"dropped,omitempty"`
}

func summarizeDecisions(res *scenario.Result) decisionSummary {
	d := &res.Decisions
	return decisionSummary{
		Decisions:       d.Decisions,
		Admissions:      d.Admissions,
		Replacements:    d.Replacements,
		Migrations:      d.Migrations,
		GatedMigrations: d.GatedMigrations,
		NoCandidate:     d.NoCandidate,
		MeanMargin:      d.MeanMargin(),
		QueueWait:       d.QueueWait.String(),
		QueueWaitMeanUS: d.QueueWait.MeanUS(),
		QueueWaitMaxUS:  d.QueueWait.MaxUS,
		Traced:          len(res.DecisionRecords),
		Dropped:         res.DecisionsDropped,
	}
}

// writeJSONSummary renders the run's fleet/node/app summaries as one
// indented JSON document.
func writeJSONSummary(w io.Writer, sc *scenario.Scenario, res *scenario.Result) error {
	out := runSummary{
		Scenario:         sc.Name,
		Manager:          sc.Manager,
		DurationMS:       sc.DurationMS,
		Samples:          res.Samples,
		TraceDigest:      fmt.Sprintf("%016x", res.TraceDigest),
		EnergyJ:          res.EnergyJ,
		OverheadUS:       int64(res.OverheadUS),
		QueuedArrivals:   res.QueuedArrivals,
		DroppedArrivals:  res.DroppedArrivals,
		NodeMigrations:   res.NodeMigrations,
		MigrationDelayUS: int64(res.MigrationDelayUS),
		SLOSamples:       res.SLOSamples,
		SLOMisses:        res.SLOMisses,
		NodeCrashes:      res.NodeCrashes,
		Recoveries:       res.Recoveries,
		LostWorkUS:       int64(res.LostWorkUS),
		TransferFails:    res.TransferFails,
		StrandedApps:     res.StrandedApps,
		Decisions:        summarizeDecisions(res),
	}
	if len(sc.Nodes) > 0 {
		out.Placement = res.Placement
	}
	for _, a := range res.Apps {
		out.Apps = append(out.Apps, appSummary{
			Name:             a.Name,
			Beats:            a.Beats,
			Work:             a.Work,
			Migrations:       a.Migrations,
			NodeMigrations:   a.NodeMigrations,
			MigrationDelayUS: int64(a.MigrationDelayUS),
			Node:             a.Node,
			Queued:           a.Queued,
			Skipped:          a.Skipped,
			Departed:         a.Departed,
			SLOSamples:       a.SLOSamples,
			SLOMisses:        a.SLOMisses,
			Recoveries:       a.Recoveries,
			LostWorkUS:       int64(a.LostWorkUS),
			Stranded:         a.Stranded,
		})
	}
	for _, nr := range res.Nodes {
		ns := nodeSummary{
			Name:        nr.Name,
			Manager:     nr.Manager,
			EnergyJ:     nr.EnergyJ,
			OverheadUS:  int64(nr.OverheadUS),
			OnlineMask:  fmt.Sprintf("%x", uint64(nr.Machine.OnlineMask())),
			BigLevel:    nr.Machine.Level(hmp.Big),
			LittleLevel: nr.Machine.Level(hmp.Little),
			BigCap:      nr.Machine.LevelCap(hmp.Big),
			LittleCap:   nr.Machine.LevelCap(hmp.Little),
		}
		if gov := nr.Thermal; gov != nil {
			ns.Thermal = &thermalSummary{
				BigTempC:    gov.TempC(hmp.Big),
				LittleTempC: gov.TempC(hmp.Little),
				BigPeakC:    gov.PeakC(hmp.Big),
				LittlePeakC: gov.PeakC(hmp.Little),
				Throttles:   gov.Throttles(),
				Trips:       gov.Trips(),
				Releases:    gov.Releases(),
			}
		}
		out.Nodes = append(out.Nodes, ns)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// The -counterfactual JSON schema (declaration order = output order, like
// the run summary).
type cfAlternativeSummary struct {
	Node            string  `json:"node"`
	Score           float64 `json:"score"`
	SLOMisses       int     `json:"slo_misses"`
	EnergyJ         float64 `json:"energy_j"`
	NodeMigrations  int     `json:"node_migrations"`
	DSLOMisses      int     `json:"d_slo_misses"`
	DEnergyJ        float64 `json:"d_energy_j"`
	DNodeMigrations int     `json:"d_node_migrations"`
}

type cfSummary struct {
	Scenario               string                 `json:"scenario"`
	ID                     uint64                 `json:"id"`
	Kind                   string                 `json:"kind"`
	App                    string                 `json:"app"`
	From                   string                 `json:"from,omitempty"`
	Chosen                 string                 `json:"chosen,omitempty"`
	Outcome                string                 `json:"outcome"`
	BaselineSLOMisses      int                    `json:"baseline_slo_misses"`
	BaselineEnergyJ        float64                `json:"baseline_energy_j"`
	BaselineNodeMigrations int                    `json:"baseline_node_migrations"`
	RegretSLOMisses        int                    `json:"regret_slo_misses"`
	RegretEnergyJ          float64                `json:"regret_energy_j"`
	Alternatives           []cfAlternativeSummary `json:"alternatives"`
}

func writeJSONCounterfactual(w io.Writer, sc *scenario.Scenario, cf *scenario.Counterfactual) error {
	rm, re := cf.Regret()
	out := cfSummary{
		Scenario:               sc.Name,
		ID:                     cf.ID,
		Kind:                   cf.Decision.Kind.String(),
		App:                    cf.Decision.App,
		From:                   cf.Decision.From,
		Chosen:                 cf.Decision.Chosen,
		Outcome:                cf.Decision.Outcome,
		BaselineSLOMisses:      cf.BaselineSLOMisses,
		BaselineEnergyJ:        cf.BaselineEnergyJ,
		BaselineNodeMigrations: cf.BaselineNodeMigrations,
		RegretSLOMisses:        rm,
		RegretEnergyJ:          re,
	}
	for _, a := range cf.Alternatives {
		out.Alternatives = append(out.Alternatives, cfAlternativeSummary{
			Node:            a.Node,
			Score:           a.Score,
			SLOMisses:       a.SLOMisses,
			EnergyJ:         a.EnergyJ,
			NodeMigrations:  a.NodeMigrations,
			DSLOMisses:      a.DSLOMisses,
			DEnergyJ:        a.DEnergyJ,
			DNodeMigrations: a.DNodeMigrations,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func writeTextCounterfactual(w io.Writer, sc *scenario.Scenario, cf *scenario.Counterfactual) {
	d := cf.Decision
	from := d.From
	if from == "" {
		from = "-"
	}
	to := d.Chosen
	if to == "" {
		to = "-"
	}
	fmt.Fprintf(w, "counterfactual: scenario %s, decision %d (%s %s %s>%s %s)\n",
		sc.Name, cf.ID, d.Kind, d.App, from, to, d.Outcome)
	fmt.Fprintf(w, "baseline: %d slo misses, %.1f J, %d node moves\n",
		cf.BaselineSLOMisses, cf.BaselineEnergyJ, cf.BaselineNodeMigrations)
	if len(cf.Alternatives) == 0 {
		fmt.Fprintln(w, "no alternative candidates to replay")
		return
	}
	for _, a := range cf.Alternatives {
		fmt.Fprintf(w, "  force %-8s (score %.3f): %d misses (%+d), %.1f J (%+.1f), %d moves (%+d)\n",
			a.Node, a.Score, a.SLOMisses, a.DSLOMisses, a.EnergyJ, a.DEnergyJ,
			a.NodeMigrations, a.DNodeMigrations)
	}
	rm, re := cf.Regret()
	fmt.Fprintf(w, "regret: %d slo misses, %.1f J\n", rm, re)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
