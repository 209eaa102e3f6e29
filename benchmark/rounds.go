package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is the measured length of one run, BENCHMARK.json's
// run_seconds.
const defaultSeconds = 25

// child is one run of one workload in a child process.
type child struct {
	Result result  `json:"result"`
	Detail detail  `json:"detail"`
	Steal  float64 `json:"steal_share"` // host steal time over the run, share of all CPU time
	WallS  float64 `json:"wall_s"`
}

// runChild runs one workload in a fresh process of bin and waits for it.
func runChild(bin string, w *workloadDef, seed int64, seconds float64, traced bool) (child, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(bin, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", tr)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	st0 := readStat()
	t0 := time.Now()
	out, err := cmd.Output()
	c := child{WallS: time.Since(t0).Seconds(), Steal: stealShare(st0, readStat())}
	if err != nil {
		return c, fmt.Errorf("%s %s: %v\n%s", bin, w.name, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c.Result); err != nil {
		return c, fmt.Errorf("%s %s: result line: %v", bin, w.name, err)
	}
	for _, l := range lines {
		if strings.HasPrefix(l, `{"detail":`) {
			var d struct {
				Detail detail `json:"detail"`
			}
			if err := json.Unmarshal([]byte(l), &d); err != nil {
				return c, fmt.Errorf("%s %s: detail line: %v", bin, w.name, err)
			}
			c.Detail = d.Detail
		}
	}
	return c, nil
}

// summary is one metric's distribution over a workload's runs.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

func summarize(unit string, xs []float64) summary {
	q1, med, q3 := quartiles(xs)
	lo, hi := minMax(xs)
	return summary{Unit: unit, Median: med, Q1: q1, Q3: q3, Min: lo, Max: hi, Values: xs}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

type workloadReport struct {
	Name       string             `json:"name"`
	Metrics    map[string]summary `json:"metrics"`
	Steal      []float64          `json:"steal_share_per_round"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	ErrorRate  float64            `json:"error_rate"`
	Digests    []string           `json:"digests"`
	Golden     bool               `json:"golden_checked"`
	TailPct    float64            `json:"tail_pct"`
	TailBeyond []int              `json:"tail_beyond_per_round"`
	Counts     map[string]float64 `json:"counts_per_cycle,omitempty"`
	Layers     map[string]metric  `json:"layers,omitempty"`
	Ratios     map[string]float64 `json:"ratios,omitempty"`
	Errors     []string           `json:"errors,omitempty"`
}

type provenance struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Started    string `json:"started"`
}

type report struct {
	Provenance provenance       `json:"provenance"`
	Seed       int64            `json:"seed"`
	Rounds     int              `json:"rounds"`
	Seconds    float64          `json:"seconds"`
	Workloads  []workloadReport `json:"workloads"`
}

func hostProvenance(gomaxprocs int) provenance {
	p := provenance{
		CPU: "unknown", NProc: runtime.NumCPU(), GoMaxProcs: gomaxprocs,
		GoVersion: runtime.Version(), Commit: "unknown",
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	return p
}

// readStat returns the aggregate CPU time counters of /proc/stat (nil when
// unavailable).
func readStat() []uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	var out []uint64
	for _, s := range f[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		out = append(out, v)
	}
	return out
}

// stealShare is the steal counter's share of all CPU time between two
// /proc/stat readings (field 8 is steal).
func stealShare(a, b []uint64) float64 {
	if len(a) < 8 || len(b) < 8 {
		return 0
	}
	var total uint64
	for i := range a {
		if i < len(b) {
			total += b[i] - a[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(b[7]-a[7]) / float64(total)
}

// runRounds runs every workload once per round, round-robin, each run in a
// fresh child process, then one traced run per workload with -layers. Runs
// of one seed must reproduce round 1's digests.
func runRounds(seed int64, seconds float64, rounds int, layers bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{Seed: seed, Rounds: rounds, Seconds: seconds}
	runs := make([][]child, len(workloads))
	for r := 1; r <= rounds; r++ {
		for i := range workloads {
			w := &workloads[i]
			c, err := runChild(self, w, seed, seconds, false)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "round %d/%d %-14s %5.1fs correct=%v steal=%.3f\n",
				r, rounds, w.name, c.WallS, c.Result.Correct, c.Steal)
			runs[i] = append(runs[i], c)
		}
	}
	for i := range workloads {
		w := &workloads[i]
		wr := workloadReport{Name: w.name, Metrics: map[string]summary{}, TailPct: 100 * tailQuantile}
		for _, m := range endToEnd {
			var xs []float64
			for _, c := range runs[i] {
				xs = append(xs, c.Result.Metrics[m.name].Value)
			}
			wr.Metrics[m.name] = summarize(m.unit, xs)
		}
		for _, c := range runs[i] {
			wr.Steal = append(wr.Steal, c.Steal)
			wr.TailBeyond = append(wr.TailBeyond, c.Detail.TailBeyond)
			wr.Attempted += c.Result.Attempted
			wr.Failed += c.Result.Failed
			wr.Errors = append(wr.Errors, c.Detail.Errors...)
			if !slices.Equal(c.Detail.Digests, runs[i][0].Detail.Digests) {
				wr.Failed++
				wr.Errors = append(wr.Errors, "a round's digests differ from round 1's")
			}
		}
		wr.Digests = runs[i][0].Detail.Digests
		wr.Golden = runs[i][0].Detail.Golden
		wr.Counts = runs[i][0].Detail.Counts
		if wr.Attempted > 0 {
			wr.ErrorRate = float64(wr.Failed) / float64(wr.Attempted)
		}
		if layers {
			c, err := runChild(self, w, seed, seconds, true)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "traced      %-14s %5.1fs correct=%v\n", w.name, c.WallS, c.Result.Correct)
			wr.Layers = c.Result.Metrics
			wr.Ratios = c.Detail.Ratios
			if !c.Result.Correct {
				wr.Failed += max(c.Result.Failed, 1)
				wr.Errors = append(wr.Errors, c.Detail.Errors...)
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	rep.Provenance = hostProvenance(runs[0][0].Detail.GoMaxProcs)
	printReport(&rep)
	if out != "" {
		return writeJSON(out, rep)
	}
	return nil
}

func printReport(rep *report) {
	p := rep.Provenance
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n", p.CPU, p.NProc, p.GoMaxProcs, p.GoVersion, p.Commit)
	fmt.Printf("seed %d, %d rounds of %gs per workload\n", rep.Seed, rep.Rounds, rep.Seconds)
	for _, wr := range rep.Workloads {
		fmt.Printf("\n%s: %d ops, error_rate %g, digests %s, steal %s\n", wr.Name, wr.Attempted, wr.ErrorRate,
			digestStatus(wr), fmtList(wr.Steal))
		fmt.Printf("  %-22s %-10s %12s %12s %12s %12s %12s %7s %6s\n",
			"metric", "unit", "median", "q1", "q3", "min", "max", "spread", "bound")
		for _, m := range endToEnd {
			s := wr.Metrics[m.name]
			fmt.Printf("  %-22s %-10s %12.5g %12.5g %12.5g %12.5g %12.5g %6.1f%% %5.0f%%\n",
				m.name, s.Unit, s.Median, s.Q1, s.Q3, s.Min, s.Max, 100*s.spread(), 100*m.bound)
		}
		fmt.Printf("  op_tail_ms is the p%g of the per-input op times; ops beyond it per round: %v\n", wr.TailPct, wr.TailBeyond)
		for _, e := range wr.Errors {
			fmt.Printf("  error: %s\n", e)
		}
		if len(wr.Layers) == 0 {
			continue
		}
		fmt.Printf("  layers (self share / cumulative share of %.2f sampled CPU-s):\n", wr.Layers["profile.cpu_s"].Value)
		for _, name := range layerNames() {
			self, cum := wr.Layers[name+".share"].Value, wr.Layers[name+".cum_share"].Value
			if self == 0 && cum == 0 {
				continue
			}
			fmt.Printf("    %-20s %6.1f%% %6.1f%%\n", name, 100*self, 100*cum)
		}
		fmt.Printf("  trace_overhead_frac %.3f, sim.ns_per_node_s %.4g\n",
			wr.Layers["trace_overhead_frac"].Value, wr.Layers["sim.ns_per_node_s"].Value)
		for _, name := range countNames {
			if v := wr.Layers[name].Value; v != 0 {
				fmt.Printf("    %-22s %g per cycle\n", name, v)
			}
		}
		for _, name := range sortedKeys(wr.Ratios) {
			fmt.Printf("    %-28s %.4g\n", name, wr.Ratios[name])
		}
		for _, name := range []string{"model.energy_j", "model.slo_miss_frac", "model.pp_gm_hars_ei"} {
			if v := wr.Layers[name].Value; v != 0 {
				fmt.Printf("    %-22s %.17g\n", name, v)
			}
		}
	}
}

func digestStatus(wr workloadReport) string {
	if wr.Failed > 0 {
		return "MISMATCH"
	}
	if wr.Golden {
		return "match the checked-in ones"
	}
	return "repeat across rounds"
}

func fmtList(xs []float64) string {
	var parts []string
	for _, x := range xs {
		parts = append(parts, strconv.FormatFloat(x, 'f', 3, 64))
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges b against a for one metric: a regression is a median worse
// by more than the bound; where either side's spread is wider than the
// bound the comparison is unresolved, unless every run of b reads better
// than every run of a.
func verdict(higher bool, bound float64, a, b summary) (delta float64, v string) {
	if a.Median == 0 {
		return 0, "n/a"
	}
	delta = (b.Median - a.Median) / math.Abs(a.Median)
	worse := delta
	if higher {
		worse = -delta
	}
	allBetter := a.Max < b.Min
	if !higher {
		allBetter = b.Max < a.Min
	}
	switch {
	case allBetter:
		return delta, "better"
	case a.spread() > bound || b.spread() > bound:
		return delta, "unresolved"
	case worse > bound:
		return delta, "REGRESSION"
	}
	return delta, "ok"
}

// compareFiles prints b's per-(workload, metric) deltas against a.
func compareFiles(pa, pb string) error {
	a, err := readReport(pa)
	if err != nil {
		return err
	}
	b, err := readReport(pb)
	if err != nil {
		return err
	}
	if pa, pb := a.Provenance, b.Provenance; pa.CPU != pb.CPU || pa.NProc != pb.NProc ||
		pa.GoMaxProcs != pb.GoMaxProcs || pa.GoVersion != pb.GoVersion {
		fmt.Printf("warning: the runs were made on different machines or toolchains:\n  a: %s, nproc %d, GOMAXPROCS %d, %s\n  b: %s, nproc %d, GOMAXPROCS %d, %s\n",
			pa.CPU, pa.NProc, pa.GoMaxProcs, pa.GoVersion, pb.CPU, pb.NProc, pb.GoMaxProcs, pb.GoVersion)
	}
	fmt.Printf("a: commit %s, seed %d, %d rounds\nb: commit %s, seed %d, %d rounds\n",
		a.Provenance.Commit, a.Seed, a.Rounds, b.Provenance.Commit, b.Seed, b.Rounds)
	fmt.Printf("%-14s %-22s %12s %12s %8s %6s  %s\n", "workload", "metric", "a median", "b median", "delta", "bound", "verdict")
	for _, wb := range b.Workloads {
		i := slices.IndexFunc(a.Workloads, func(w workloadReport) bool { return w.Name == wb.Name })
		if i < 0 {
			fmt.Printf("%-14s only in b\n", wb.Name)
			continue
		}
		wa := a.Workloads[i]
		for _, m := range endToEnd {
			sa, sb := wa.Metrics[m.name], wb.Metrics[m.name]
			d, v := verdict(m.higher, m.bound, sa, sb)
			fmt.Printf("%-14s %-22s %12.5g %12.5g %+7.1f%% %5.0f%%  %s\n",
				wb.Name, m.name, sa.Median, sb.Median, 100*d, 100*m.bound, v)
		}
		if wa.ErrorRate != 0 || wb.ErrorRate != 0 {
			fmt.Printf("%-14s %-22s %12g %12g\n", wb.Name, "error_rate", wa.ErrorRate, wb.ErrorRate)
		}
	}
	return nil
}

// pairReport is the paired-mode outcome of one workload and metric.
type pairReport struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Other    summary `json:"other"`
	This     summary `json:"this"`
	Wins     int     `json:"wins"` // pairs in which this build read better
	Losses   int     `json:"losses"`
	Delta    float64 `json:"delta"`
	Verdict  string  `json:"verdict"`
}

// runPairs alternates runs of the other build and this one, the other
// first on odd pairs, and reports each side's median and quartiles, the
// wins per pair, and a verdict per (workload, metric) following the
// choosing-metrics rules: a gain needs nine tenths of the pairs and a
// median difference wider than the other side's spread; a spread wider
// than the bound leaves the comparison unresolved.
func runPairs(other string, seed int64, seconds float64, pairs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type sides struct{ other, this []child }
	runs := make([]sides, len(workloads))
	for p := 1; p <= pairs; p++ {
		for i := range workloads {
			w := &workloads[i]
			for k := 0; k < 2; k++ {
				isOther := (k == 0) == (p%2 == 1)
				bin, side := self, "this"
				if isOther {
					bin, side = other, "other"
				}
				c, err := runChild(bin, w, seed, seconds, false)
				if err != nil {
					return err
				}
				if !c.Result.Correct {
					return fmt.Errorf("%s %s: incorrect result: %v", bin, w.name, c.Detail.Errors)
				}
				if isOther {
					runs[i].other = append(runs[i].other, c)
				} else {
					runs[i].this = append(runs[i].this, c)
				}
				fmt.Fprintf(os.Stderr, "pair %d/%d %-14s %-5s %5.1fs steal=%.3f\n", p, pairs, w.name, side, c.WallS, c.Steal)
			}
		}
	}
	var reps []pairReport
	fmt.Printf("%-14s %-22s %24s %24s %5s %8s %6s  %s\n", "workload", "metric",
		"other median [q1 q3]", "this median [q1 q3]", "wins", "delta", "bound", "verdict")
	for i, w := range workloads {
		for _, m := range endToEnd {
			var xo, xt []float64
			row := pairReport{Workload: w.name, Metric: m.name}
			for k := range runs[i].this {
				o, t := runs[i].other[k].Result.Metrics[m.name].Value, runs[i].this[k].Result.Metrics[m.name].Value
				xo, xt = append(xo, o), append(xt, t)
				better := t < o
				if m.higher {
					better = t > o
				}
				switch {
				case t == o:
				case better:
					row.Wins++
				default:
					row.Losses++
				}
			}
			row.Other, row.This = summarize(m.unit, xo), summarize(m.unit, xt)
			row.Delta, row.Verdict = verdict(m.higher, m.bound, row.Other, row.This)
			gap := math.Abs(row.This.Median - row.Other.Median)
			if row.Verdict == "ok" && float64(row.Wins) >= 0.9*float64(pairs) && gap > row.Other.Q3-row.Other.Q1 {
				row.Verdict = "gain"
			}
			reps = append(reps, row)
			fmt.Printf("%-14s %-22s %10.5g [%5.4g %5.4g] %10.5g [%5.4g %5.4g] %2d/%-2d %+7.1f%% %5.0f%%  %s\n",
				w.name, m.name, row.Other.Median, row.Other.Q1, row.Other.Q3,
				row.This.Median, row.This.Q1, row.This.Q3, row.Wins, pairs, 100*row.Delta, 100*m.bound, row.Verdict)
		}
	}
	if out != "" {
		return writeJSON(out, struct {
			Provenance provenance   `json:"provenance"`
			Other      string       `json:"other"`
			Seed       int64        `json:"seed"`
			Seconds    float64      `json:"seconds"`
			Pairs      int          `json:"pairs"`
			Results    []pairReport `json:"results"`
		}{hostProvenance(runtime.GOMAXPROCS(0)), other, seed, seconds, pairs, reps})
	}
	return nil
}

// rewriteDigests regenerates digests_seed1.json from seed 1: the per-input
// digests of every workload, for after an intentional change to what the
// program computes.
func rewriteDigests() error {
	all := map[string][]string{}
	for _, w := range workloads {
		inst, err := w.setup(1)
		if err != nil {
			return err
		}
		for i := 0; i < inst.inputs(); i++ {
			res, err := inst.run(i)
			if err != nil {
				return fmt.Errorf("%s input %d: %w", w.name, i, err)
			}
			all[w.name] = append(all[w.name], fmt.Sprintf("%016x", res.digest))
		}
	}
	return writeJSON("digests_seed1.json", all)
}
