package scenario

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecode fuzzes the scenario JSON decoder: arbitrary input must never
// panic, and any input the decoder accepts must survive an encode/decode
// round trip unchanged (so replaying a saved scenario is always faithful).
func FuzzDecode(f *testing.F) {
	if data, err := os.ReadFile("testdata/dynamic.json"); err == nil {
		f.Add(data)
	}
	var gen bytes.Buffer
	if err := Generate(5, GenConfig{Manager: ManagerHARSE}).Encode(&gen); err == nil {
		f.Add(gen.Bytes())
	}
	var genFleet bytes.Buffer
	if err := Generate(7, GenConfig{Manager: ManagerMPHARSI, Nodes: 3}).Encode(&genFleet); err == nil {
		f.Add(genFleet.Bytes())
	}
	var genFaults bytes.Buffer
	if err := Generate(11, GenConfig{Manager: ManagerMPHARSI, Nodes: 3, Faults: true}).Encode(&genFaults); err == nil {
		f.Add(genFaults.Bytes())
	}
	f.Add([]byte(`{"manager":"mphars-i","duration_ms":100,"placement":"coolest","nodes":[{"name":"n0"},{"name":"n1","manager":"gts"}],"apps":[{"name":"a","bench":"SW","node":"n1","affinity":[0,1]}],"events":[{"at_ms":1,"kind":"hotplug","node":"n0","cpu":3,"online":false}]}`))
	f.Add([]byte(`{"manager":"none","duration_ms":100,"apps":[{"name":"a","bench":"SW"}]}`))
	f.Add([]byte(`{"manager":"mphars-e","duration_ms":50,"apps":[{"name":"a","bench":"FE","target":{"min":1,"avg":2,"max":3}}],"events":[{"at_ms":1,"kind":"hotplug","cpu":3,"online":false}]}`))
	f.Add([]byte(`{"manager":"hars-e","duration_ms":5000,"apps":[{"name":"a","bench":"SW"}],"thermal":{"enabled":true,"trip_c":80,"release_c":65},"events":[{"at_ms":100,"kind":"phase","app":"a","scale":1.5,"every_ms":500,"repeat":4}]}`))
	f.Add([]byte(`{"manager":"mphars-i","duration_ms":8000,"placement":"slo-aware","checkpoint":{"freeze_us":5000,"per_mb_us":500,"size_mb":8},"nodes":[{"name":"n0"},{"name":"n1"}],"apps":[{"name":"a","bench":"SW","slo":{"target_hps":3,"slack_ms":150}}],"arrivals":[{"name":"web","node":"n1","bench":"FE","seed":9,"lifetime_ms":2000,"max_apps":4,"rate":[{"until_ms":4000,"per_s":0.8},{"per_s":0.2}]}]}`))
	f.Add([]byte(`{"manager":"mphars-i","duration_ms":9000,"placement":"slo-aware","nodes":[{"name":"n0"},{"name":"n1"}],"apps":[{"name":"a","bench":"SW"}],"faults":{"seed":3,"heartbeat_timeout_ms":200,"checkpoint_every_ms":500,"transfer_fail_prob":0.1,"crashes":[{"node":"n1","at_ms":2000,"down_ms":3000},{"node":"n0","at_ms":7000}],"core_failures":[{"node":"n0","at_ms":1500,"cpu":5}],"random":{"rate_per_min":6,"down_ms":2500,"max_crashes":4}}}`))
	f.Add([]byte(`{"manager":"mphars-i","duration_ms":4000,"nodes":[{"name":"n0"}],"apps":[{"name":"a","bench":"BO"}],"faults":{"crashes":[],"core_failures":[],"retry_base_ms":10,"retry_max_ms":100,"retry_jitter_ms":5}}`))
	// Two nodes share one board text, a third writes the same board
	// re-indented, and a fourth's board is null (the default one).
	board := `{"Clusters":[{"Name":"A7","Cores":2,"IPC":1,"OPPs":[{"KHz":800000,"MilliVolt":900}]},` +
		`{"Name":"A15","Cores":2,"IPC":1.5,"OPPs":[{"KHz":800000,"MilliVolt":900},{"KHz":1600000,"MilliVolt":1200}]}],"BaseKHz":800000}`
	reindented := strings.NewReplacer(`{`, "{\n  ", `,`, ",\n  ", `:`, ": ").Replace(board)
	f.Add([]byte(`{"manager":"none","duration_ms":100,"nodes":[{"name":"n0","platform":` + board +
		`},{"name":"n1","platform":` + board + `},{"name":"n2","platform":` + reindented +
		`},{"name":"n3","platform":null}],"apps":[{"name":"a","bench":"SW"}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var buf bytes.Buffer
		if err := sc.Encode(&buf); err != nil {
			t.Fatalf("accepted scenario failed to encode: %v", err)
		}
		again, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of encoded scenario failed: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(sc, again) {
			t.Fatalf("round trip changed the scenario:\nfirst:  %+v\nsecond: %+v", sc, again)
		}
	})
}
