// Command benchmark is the repository's end-to-end benchmark: it replays
// generated fleet scenarios through the public scenario entry points and
// regenerates Figure 5.1 through the experiments environment, and reports
// end-to-end metrics (throughput, op latency, set-up time, memory) plus,
// from a CPU-profiled run, each layer's share of the time. See README.md.
//
// One run of one workload (the benchmark contract; the last line of
// standard output is the JSON result):
//
//	benchmark --workload fleet-churn --seed 3 --seconds 25 --trace 0
//
// Rounds of every workload, one child process per run, round-robin:
//
//	benchmark -seed 1 [-rounds 3] [-seconds 25] [-layers] [-out result.json]
//
// Comparing two result files, and pairing this build with another:
//
//	benchmark -compare a.json b.json
//	benchmark -pair ../parent/benchmark-bin [-pairs 10] [-out pair.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	wl := flag.String("workload", "", "run one workload once and print its JSON result as the last line")
	seed := flag.Int64("seed", 1, "workload seed: the generated inputs are a function of it")
	seconds := flag.Float64("seconds", defaultSeconds, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = profiled run reporting the per-layer metrics instead of the end-to-end ones")
	rounds := flag.Int("rounds", 3, "rounds of every workload (rounds mode)")
	layers := flag.Bool("layers", false, "add one traced run per workload (rounds mode)")
	out := flag.String("out", "", "write the rounds or pair report as JSON here")
	compare := flag.String("compare", "", "compare this result file with the one named by the next argument")
	pair := flag.String("pair", "", "alternate runs of this build with the benchmark binary named here")
	pairs := flag.Int("pairs", 10, "pairs to run (-pair); at least 10")
	writeDigests := flag.Bool("write-digests", false, "rewrite digests_seed1.json in the current directory from seed 1")
	flag.Parse()

	if *wl != "" {
		w, ok := workloadByName(*wl)
		if !ok {
			usage("unknown workload %q (have %s)", *wl, strings.Join(workloadNames(), ", "))
		}
		if *trace != 0 && *trace != 1 {
			usage("-trace must be 0 or 1")
		}
		if *seconds <= 0 {
			usage("-seconds must be positive")
		}
		res, det, err := runOne(w, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		printJSON(struct {
			Detail detail `json:"detail"`
		}{det})
		printJSON(res)
		return
	}

	var err error
	switch {
	case *compare != "":
		if flag.NArg() != 1 {
			usage("-compare takes two result files: -compare a.json b.json")
		}
		err = compareFiles(*compare, flag.Arg(0))
	case *pair != "":
		if *pairs < 10 {
			usage("-pairs must be at least 10")
		}
		err = runPairs(*pair, *seed, *seconds, *pairs, *out)
	case *writeDigests:
		err = rewriteDigests()
	default:
		if *rounds < 1 {
			usage("-rounds must be at least 1")
		}
		err = runRounds(*seed, *seconds, *rounds, *layers, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}
