package main

import (
	"path"
	"strings"
)

// layer names one layer of the program and the functions that enter it.
// Patterns use path.Match syntax against fully qualified function names as
// the profile records them; a closure of a matched function (F.func1,
// F.func1.2, F.gowrap1) belongs to the same layer.
type layer struct {
	name     string
	patterns []string
}

// layerTable is the profile symbol → layer map. A profiled sample is
// charged to the innermost frame that matches a layer (its self time) and
// to every layer that matches any of its frames (its cumulative time), so a
// layer's self time excludes the layers it calls into. Samples matching no
// layer are charged to "other". Entries are exported names except where a
// layer has no exported entry.
var layerTable = []layer{
	{"scenario.calibrate", []string{"repro/internal/scenario.(*engine).maxRate"}},
	{"scenario.host", []string{
		"repro/internal/scenario.(*engine).Admit",
		"repro/internal/scenario.(*engine).Checkpoint",
		"repro/internal/scenario.(*engine).Snapshot",
		"repro/internal/scenario.(*engine).Salvage",
	}},
	{"scenario.trace", []string{
		"repro/internal/scenario.(*engine).sample",
		"repro/internal/scenario.(*engine).traceDecision",
		"repro/internal/scenario.(*engine).traceFault",
		"repro/internal/scenario.(*engine).writeHeader",
	}},
	{"fleet.barrier", []string{
		"repro/internal/fleet.(*Fleet).RunUntil",
		"repro/internal/fleet.(*Fleet).Step",
	}},
	{"fleet.wake", []string{"repro/internal/fleet.(*Scheduler).NextWake"}},
	{"fleet.sched", []string{
		"repro/internal/fleet.(*Scheduler).Tick",
		"repro/internal/fleet.(*Scheduler).Arrive",
		"repro/internal/fleet.(*Scheduler).Depart",
	}},
	{"fleet.policy", []string{"repro/internal/fleet.*.Score"}},
	{"sim.step", []string{"repro/internal/sim.(*Machine).Step"}},
	{"sim.steady", []string{
		"repro/internal/sim.(*Machine).RunSteady",
		"repro/internal/sim.(*Machine).SteadyUntil",
	}},
	{"sim.inert", []string{
		"repro/internal/sim.(*Machine).InertUntil",
		"repro/internal/sim.(*Machine).FastForward*",
	}},
	{"sim.ckpt", []string{
		"repro/internal/sim.(*Machine).Checkpoint",
		"repro/internal/sim.(*Machine).Snapshot",
		"repro/internal/sim.(*Machine).Restore",
		"repro/internal/sim.(*Machine).Recover",
	}},
	{"placer.gts", []string{"repro/internal/gts.(*Scheduler).Place"}},
	{"placer.mask", []string{"repro/internal/sim.(*MaskBalancer).Place"}},
	{"core.manager", []string{"repro/internal/core.(*Manager).Tick"}},
	{"core.search", []string{"repro/internal/core.Search"}},
	{"core.estimators", []string{"repro/internal/core.NewEstimators"}},
	{"mphars", []string{
		"repro/internal/mphars.(*Manager).Tick",
		"repro/internal/mphars.(*Manager).Register",
		"repro/internal/mphars.(*Manager).Unregister",
	}},
	{"decision", []string{"repro/internal/decision.*"}},
	{"fault", []string{"repro/internal/fault.*"}},
	{"thermal", []string{"repro/internal/thermal.*"}},
	{"oracle", []string{"repro/internal/oracle.*"}},
	{"experiments", []string{"repro/internal/experiments.*"}},
	{"power", []string{"repro/internal/power.*"}},
	{"json", []string{"encoding/json.*"}},
	{"gc", []string{
		"runtime.mallocgc",
		"runtime.gcBgMarkWorker",
		"runtime.gcAssistAlloc",
		"runtime.bgsweep",
		"runtime.bgscavenge",
	}},
}

// otherLayer collects samples no layer matches.
const otherLayer = "other"

// layerNames returns the layer names in table order, then "other".
func layerNames() []string {
	var out []string
	for _, l := range layerTable {
		out = append(out, l.name)
	}
	return append(out, otherLayer)
}

// layerOf returns the index in table of the layer fn belongs to, or -1.
func layerOf(table []layer, fn string) int {
	fn = stripClosure(fn)
	for i, l := range table {
		for _, p := range l.patterns {
			if ok, _ := path.Match(p, fn); ok {
				return i
			}
		}
	}
	return -1
}

// stripClosure maps a closure's name to its enclosing function's:
// "pkg.F.func1.2" and "pkg.F.gowrap1" become "pkg.F".
func stripClosure(fn string) string {
	for {
		i := strings.LastIndexByte(fn, '.')
		if i < 0 || !isClosureSuffix(fn[i+1:]) {
			return fn
		}
		fn = fn[:i]
	}
}

func isClosureSuffix(s string) bool {
	for _, p := range []string{"func", "gowrap", "deferwrap"} {
		s = strings.TrimPrefix(s, p)
	}
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}
