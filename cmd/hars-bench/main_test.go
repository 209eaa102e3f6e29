package main

import (
	"strings"
	"testing"
)

func TestHostWarning(t *testing.T) {
	xeon2 := &File{CPUModel: "Xeon", NumCPU: 2}
	cases := []struct {
		name string
		prev *File
		want string // substring of the warning; "" = no warning
	}{
		{"same host", &File{CPUModel: "Xeon", NumCPU: 2}, ""},
		{"other model", &File{CPUModel: "EPYC", NumCPU: 2}, `"EPYC" (2 CPUs)`},
		{"other count", &File{CPUModel: "Xeon", NumCPU: 1}, `"Xeon" (1 CPUs)`},
		{"unrecorded model", &File{NumCPU: 2}, "an unrecorded CPU model (2 CPUs)"},
	}
	for _, c := range cases {
		got := hostWarning(c.prev, xeon2)
		if c.want == "" {
			if got != "" {
				t.Errorf("%s: warned %q", c.name, got)
			}
			continue
		}
		if !strings.Contains(got, c.want) || !strings.Contains(got, `this run on "Xeon" (2 CPUs)`) {
			t.Errorf("%s: warning %q, want it to name %s and this host", c.name, got, c.want)
		}
	}
}
