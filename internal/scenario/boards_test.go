package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/hmp"
)

// fleetDoc returns a fleet document whose nodes carry the given raw
// "platform" texts ("" omits the field), one SW app on the first node.
func fleetDoc(boards ...string) string {
	var nodes []string
	for i, b := range boards {
		if b == "" {
			nodes = append(nodes, fmt.Sprintf(`{"name":"n%d"}`, i))
		} else {
			nodes = append(nodes, fmt.Sprintf(`{"name":"n%d","platform":%s}`, i, b))
		}
	}
	return `{"manager":"none","duration_ms":1000,"nodes":[` + strings.Join(nodes, ",") +
		`],"apps":[{"name":"a","bench":"SW","node":"n0"}]}`
}

// boardText returns a board's JSON, compact or indented.
func boardText(t *testing.T, p *hmp.Platform, indent bool) string {
	t.Helper()
	var b []byte
	var err error
	if indent {
		b, err = json.MarshalIndent(p, "    ", "\t")
	} else {
		b, err = json.Marshal(p)
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDecodeSharesBoardText: nodes with byte-identical board texts share
// one decoded instance; another text gets its own.
func TestDecodeSharesBoardText(t *testing.T) {
	tiny, heavy := boardText(t, tinyPlatform(), false), boardText(t, littleHeavyPlatform(), false)
	sc, err := Decode(strings.NewReader(fleetDoc(tiny, heavy, tiny, heavy, tiny)))
	if err != nil {
		t.Fatal(err)
	}
	n := sc.Nodes
	if n[0].Platform != n[2].Platform || n[0].Platform != n[4].Platform || n[1].Platform != n[3].Platform {
		t.Fatal("nodes with one board text hold different instances")
	}
	if n[0].Platform == n[1].Platform || !n[0].Platform.Equal(tinyPlatform()) || !n[1].Platform.Equal(littleHeavyPlatform()) {
		t.Fatalf("boards decoded wrong: %+v, %+v", n[0].Platform, n[1].Platform)
	}
}

// TestResolveSharesEqualBoards: equal boards written differently decode
// to two instances, and resolveNodes gives both nodes one.
func TestResolveSharesEqualBoards(t *testing.T) {
	compact, indented := boardText(t, tinyPlatform(), false), boardText(t, tinyPlatform(), true)
	sc, err := Decode(strings.NewReader(fleetDoc(compact, indented, "")))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Nodes[0].Platform == sc.Nodes[1].Platform {
		t.Fatal("two board texts decoded to one instance")
	}
	nodes, err := sc.resolveNodes()
	if err != nil {
		t.Fatal(err)
	}
	if nodes[0].plat != nodes[1].plat {
		t.Fatal("equal boards written differently resolve to two instances")
	}
	if nodes[2].plat == nodes[0].plat || !nodes[2].plat.Equal(hmp.Default()) {
		t.Fatal("the node without a board did not get the default one")
	}
}

// TestRunSharedScenarioConcurrently: validating and running a scenario
// only read it, so two goroutines may run one decoded multi-node spec at
// once (under -race, a write to its shared boards fails the test) and must
// produce equal traces.
func TestRunSharedScenarioConcurrently(t *testing.T) {
	tiny := boardText(t, tinyPlatform(), false)
	heavy := boardText(t, littleHeavyPlatform(), true)
	sc, err := Decode(strings.NewReader(fleetDoc(tiny, heavy, tiny, "")))
	if err != nil {
		t.Fatal(err)
	}
	var res [2]*Result
	var errs [2]error
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = Run(sc, Options{})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if res[0].TraceDigest != res[1].TraceDigest {
		t.Fatalf("trace digests differ: %x vs %x", res[0].TraceDigest, res[1].TraceDigest)
	}
}

// TestBoardSharesEstimatorTables: a fleet run builds each Table 3.1 memo
// table once per distinct board and thread count, as it builds one
// calibration and one ground truth per board — however many nodes carry
// the board, and however often apps arrive and recover on them. Every node
// below embeds its own copy of one of two boards, as the benchmark's
// fleets do.
func TestBoardSharesEstimatorTables(t *testing.T) {
	board := func(i int) *hmp.Platform {
		if i%2 == 1 {
			return littleHeavyPlatform()
		}
		return hmp.Default()
	}
	tgt := &TargetSpec{Min: 1, Avg: 2, Max: 3}

	// Eight HARS-E nodes, one pinned app each: SW and FE (8 threads: 8 and
	// 34 threads) on both boards. One table per manager would build 8.
	steady := &Scenario{Name: "tables-steady", Manager: ManagerHARSE, DurationMS: 2000, MigrateEveryMS: -1}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("n%d", i)
		bench := []string{"SW", "SW", "FE", "FE"}[i%4]
		steady.Nodes = append(steady.Nodes, NodeSpec{Name: name, Platform: board(i)})
		steady.Apps = append(steady.Apps, AppSpec{Name: "a" + name, Bench: bench, Threads: 8, Target: tgt, Node: name})
	}

	// Four MP-HARS-I nodes fed by SW and FE arrival streams (4 and 18
	// threads) under SLO-aware placement, with background checkpoints and
	// random crashes, so apps also recover onto other nodes (27 admissions
	// and 5 recoveries). One table per manager and thread count would
	// build up to 8.
	churn := &Scenario{
		Name: "tables-churn", Manager: ManagerMPHARSI, DurationMS: 8000, AdaptEvery: 2,
		Placement: "slo-aware", MigrateEveryMS: 100,
		Checkpoint: &CheckpointSpec{FreezeUS: 2000, PerMBUS: 100, SizeMB: 64},
		Faults: &fault.Spec{
			Seed: 5, CheckpointEveryMS: 500, TransferFailProb: 0.1,
			Random: &fault.RandomCrashes{RatePerMin: 30, DownMS: 1500},
		},
	}
	for i := 0; i < 4; i++ {
		churn.Nodes = append(churn.Nodes, NodeSpec{Name: fmt.Sprintf("n%d", i), Platform: board(i)})
	}
	for i, bench := range []string{"SW", "FE"} {
		churn.Arrivals = append(churn.Arrivals, ArrivalStream{
			Name: "s" + bench, Seed: int64(3 + i), Rate: []RateStep{{PerS: 2}}, LifetimeMS: 1500,
			Bench: bench, Threads: 4, Target: tgt, SLO: &SLOSpec{TargetHPS: 0.5, SlackMS: 150},
		})
	}

	for _, tc := range []struct {
		sc   *Scenario
		want int // 0: at most the bound
	}{{steady, 4}, {churn, 0}} {
		built, bound, err := runTables(tc.sc, Options{Strict: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.sc.Name, err)
		}
		t.Logf("%s: %d tables built, bound %d", tc.sc.Name, built, bound)
		if built == 0 || built > bound || (tc.want > 0 && built != tc.want) {
			t.Errorf("%s: %d tables built, want 1..%d (boards × thread counts)", tc.sc.Name, built, bound)
		}
	}
}

// TestDecodeBoardErrorNamesNode: a board with an unknown field fails
// Decode, and the error names the first node carrying that text.
func TestDecodeBoardErrorNamesNode(t *testing.T) {
	good := boardText(t, tinyPlatform(), false)
	bad := strings.Replace(good, `"BaseKHz"`, `"Bogus":1,"BaseKHz"`, 1)
	_, err := Decode(strings.NewReader(fleetDoc(good, bad, bad)))
	if err == nil || !strings.Contains(err.Error(), `node "n1"`) || !strings.Contains(err.Error(), `unknown field "Bogus"`) {
		t.Fatalf("Decode err = %v, want it to name node n1 and the unknown field", err)
	}
	// A board that decodes but fails validation names its node too.
	zero := strings.Replace(good, `"Cores":1`, `"Cores":0`, 1)
	_, err = Decode(strings.NewReader(fleetDoc(good, good, zero)))
	if err == nil || !strings.Contains(err.Error(), `node "n2"`) || !strings.Contains(err.Error(), "has 0 cores") {
		t.Fatalf("Decode err = %v, want it to name node n2 and the empty cluster", err)
	}
}

// TestDecodeNullBoard: "platform": null is an omitted board, so the node
// runs the default board and the document round-trips without the field.
func TestDecodeNullBoard(t *testing.T) {
	sc, err := Decode(strings.NewReader(fleetDoc("null", boardText(t, tinyPlatform(), false))))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Nodes[0].Platform != nil {
		t.Fatalf("null board decoded to %+v", sc.Nodes[0].Platform)
	}
	nodes, err := sc.resolveNodes()
	if err != nil {
		t.Fatal(err)
	}
	if !nodes[0].plat.Equal(hmp.Default()) {
		t.Fatalf("null board resolved to %+v, want the default board", nodes[0].plat)
	}
	var buf strings.Builder
	if err := sc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "null") {
		t.Fatalf("a null board re-encoded as a field:\n%s", buf.String())
	}
}
