package experiments

import (
	"fmt"
	"runtime"
	"time"
)

// Driver is one registered experiment: a name (the -exp selector of
// cmd/hars-experiments) and the function regenerating its report.
type Driver struct {
	Name string
	Run  func(*Env) *Report
}

// Drivers returns the experiment registry in presentation order (the order
// the paper's evaluation chapter introduces them).
func Drivers() []Driver {
	return []Driver{
		{"table3.1", Table31},
		{"table4.3", Table43},
		{"power", PowerProfile},
		{"fig5.1", Fig51},
		{"fig5.2", Fig52},
		{"fig5.3", Fig53},
		{"fig5.4", Fig54},
		{"fig5.5", Fig55},
		{"fig5.6", Fig56},
		{"fig5.7", Fig57},
		{"ablation", Ablations},
		{"extended", ExtendedSuite},
		{"scenarios", ScenarioSweep},
		{"thermal", ThermalSweep},
		{"fleet", FleetSweep},
		{"slo", SLOSweep},
		{"faults", FaultsSweep},
		{"decisions", DecisionsSweep},
	}
}

// Outcome is one driver's result under the engine.
type Outcome struct {
	Name    string
	Report  *Report
	Elapsed time.Duration
}

// RunDrivers executes the drivers through a worker pool of the given width
// (workers <= 1 runs serially, workers == 0 uses one worker per CPU; the
// figure sweeps run through the same pool, one worker per CPU) and
// returns their outcomes in input order. Every driver owns its machines and
// only shares the environment's synchronized caches, so the reports are
// identical whatever the pool width — the engine changes wall-clock time,
// never results. onDone, when non-nil, observes each outcome in input order
// as soon as it (and all its predecessors) completed, allowing streamed
// output while later drivers still run.
func RunDrivers(env *Env, drivers []Driver, workers int, onDone func(Outcome)) []Outcome {
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	out := make([]Outcome, len(drivers))
	done := make([]chan struct{}, len(drivers))
	for i := range done {
		done[i] = make(chan struct{})
	}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		pool(len(drivers), workers, func(i int) {
			d := drivers[i]
			t0 := time.Now()
			out[i] = Outcome{Name: d.Name, Report: d.Run(env), Elapsed: time.Since(t0)}
			close(done[i])
		})
	}()
	for i := range drivers {
		<-done[i]
		if onDone != nil {
			onDone(out[i])
		}
	}
	<-finished
	return out
}

// SelectDrivers filters the registry by name ("all" or "" selects every
// driver).
func SelectDrivers(name string) ([]Driver, error) {
	all := Drivers()
	if name == "" || name == "all" {
		return all, nil
	}
	for _, d := range all {
		if d.Name == name {
			return []Driver{d}, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", name)
}
