package scenario

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestTraceDigestGolden pins the absolute trace bytes of two generated
// runs. Every other TraceDigest check compares two runs of the same build,
// so an encoder slip that hits both sides would pass them; these constants
// would not. The inputs are chosen to emit every per-sample and per-event
// line kind (and a -Inf candidate score), and the test fails if one of them
// stops doing so.
func TestTraceDigestGolden(t *testing.T) {
	cases := []struct {
		name   string
		sc     *Scenario
		digest uint64
		needs  []string // substrings that must occur: line kinds, a -Inf score
	}{
		{
			name: "machine-thermal",
			sc: Generate(5, GenConfig{
				MaxApps: 3, DurationMS: 6000, Events: 6, Thermal: true, Periodic: true,
			}),
			digest: 0x60238f7cf455a325,
			needs:  []string{"\nm,", "\nh,", "\na,"},
		},
		{
			name: "fleet-faults-decisions",
			sc: Generate(3, GenConfig{
				Nodes: 3, MaxApps: 4, DurationMS: 6000, Events: 5,
				Thermal: true, Faults: true, Decisions: true,
			}),
			digest: 0x531d99ee1e62c63a,
			needs:  []string{"\nn,", "\nh,", "\na,", "\nf,", "\nx,", "\nd,", ":-Inf:"},
		},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		res, err := Run(c.sc, Options{Trace: &buf, MaxRate: fixedMaxRate, Strict: true})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		trace := buf.String()
		for _, s := range c.needs {
			if !strings.Contains(trace, s) {
				t.Errorf("%s: trace lacks %q", c.name, s)
			}
		}
		if res.TraceDigest != c.digest {
			t.Errorf("%s: trace digest %#016x, want %#016x", c.name, res.TraceDigest, c.digest)
		}
	}
}

// TestTraceFieldEncoders checks the trace field encoders against the fmt
// verbs they replace, on the values where a hand-rolled encoder would slip:
// signed zeros, infinities, NaN, the smallest subnormal, the largest finite
// double and negative integers.
func TestTraceFieldEncoders(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, 1.5, -0.1, 1e300,
	}
	for _, v := range floats {
		if got, want := string(traceLine(nil).hexf(v)), fmt.Sprintf(",%x", v); got != want {
			t.Errorf("hexf(%v) = %q, fmt %%x gives %q", v, got, want)
		}
	}
	for _, v := range []int64{0, 1, -1, 42, -42, math.MaxInt64, math.MinInt64} {
		if got, want := string(traceLine(nil).dec(v)), fmt.Sprintf(",%d", v); got != want {
			t.Errorf("dec(%d) = %q, fmt %%d gives %q", v, got, want)
		}
	}
	for _, v := range []uint64{0, 1, 0xff, 0xdeadbeef, math.MaxUint64} {
		if got, want := string(traceLine(nil).udec(v)), fmt.Sprintf(",%d", v); got != want {
			t.Errorf("udec(%d) = %q, fmt %%d gives %q", v, got, want)
		}
		if got, want := string(traceLine(nil).hex(v)), fmt.Sprintf(",%x", v); got != want {
			t.Errorf("hex(%d) = %q, fmt %%x gives %q", v, got, want)
		}
	}
	for _, v := range []string{"", "node0", "-"} {
		if got, want := string(traceLine(nil).str(v)), fmt.Sprintf(",%s", v); got != want {
			t.Errorf("str(%q) = %q, fmt %%s gives %q", v, got, want)
		}
	}
	// Fields chain onto whatever the line holds.
	l := traceLine("m").dec(-7).hexf(math.Inf(-1)).str("x")
	if got, want := string(l), fmt.Sprintf("m,%d,%x,%s", -7, math.Inf(-1), "x"); got != want {
		t.Errorf("chained fields = %q, want %q", got, want)
	}
}
