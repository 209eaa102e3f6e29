package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

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
