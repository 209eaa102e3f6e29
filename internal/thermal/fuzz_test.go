package thermal_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/thermal"
)

// FuzzDecodeSpec fuzzes the thermal configuration decoder: arbitrary input
// must never panic, and any spec the decoder accepts must survive an
// encode/decode round trip unchanged and still build a governor (decode
// validation and governor validation must agree).
func FuzzDecodeSpec(f *testing.F) {
	f.Add([]byte(`{"enabled":true}`))
	f.Add([]byte(`{"enabled":true,"ambient_c":20,"trip_c":85,"throttle_c":78,"release_c":70,"min_level":1}`))
	f.Add([]byte(`{"enabled":false,"big":{"capacitance_j_per_k":2.5,"resistance_k_per_w":7},"little":{"capacitance_j_per_k":1,"resistance_k_per_w":12}}`))
	f.Add([]byte(`{"enabled":true,"coupling_w_per_k":0.08,"period_ticks":50,"init_c":40}`))
	f.Add([]byte(`{"trip_c":-5}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := thermal.DecodeSpec(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec failed to encode: %v", err)
		}
		again, err := thermal.DecodeSpec(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-decode of encoded spec failed: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("round trip changed the spec:\nfirst:  %+v\nsecond: %+v", s, again)
		}
		if _, err := thermal.NewGovernor(*s); err != nil {
			t.Fatalf("validated spec rejected by NewGovernor: %v", err)
		}
	})
}
