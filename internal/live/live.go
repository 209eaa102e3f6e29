// Package live runs the HARS control loop for real Go applications on wall
// -clock time, generalizing the paper's runtime beyond the simulator.
//
// The Go runtime hides OS threads, so the paper's literal knobs
// (sched_setaffinity, cpufreq) are not actuatable from process level.
// What a Go service does have is an equivalent two-tier resource space:
// heavyweight and lightweight workers (precise vs. approximate pipelines,
// large vs. small batch sizes, remote vs. local models, ...) with a
// throttle per tier. The live controller maps that space onto the paper's
// abstractions —
//
//	"big cores"      ↦ heavyweight worker slots
//	"little cores"   ↦ lightweight worker slots
//	"cluster DVFS"   ↦ per-tier throttle levels
//	"power"          ↦ any scalar cost (CPU-seconds, dollars, watts)
//
// — and reuses HARS verbatim: the application emits a heartbeat per unit of
// work, registers a target rate band, and the controller searches the
// neighbouring configurations for the best normalized-performance-per-cost,
// applying the winner through a caller-provided actuator.
//
// The clock is injectable, so the control loop is fully deterministic in
// tests; production callers use Run with a real ticker.
package live

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/heartbeat"
	"repro/internal/hmp"
	"repro/internal/power"
)

// Clock abstracts wall-clock time for deterministic testing.
type Clock interface {
	Now() time.Time
}

// SystemClock is the production clock.
type SystemClock struct{}

// Now implements Clock.
func (SystemClock) Now() time.Time { return time.Now() }

// Actuator applies a configuration to the application: resize worker pools,
// adjust throttles. It is called from the controller's Poll goroutine.
type Actuator interface {
	Apply(st hmp.State)
}

// ActuatorFunc adapts a function to the Actuator interface.
type ActuatorFunc func(st hmp.State)

// Apply implements Actuator.
func (f ActuatorFunc) Apply(st hmp.State) { f(st) }

// Config describes the application's knob space and control policy.
type Config struct {
	// Space describes the configuration space: cluster "cores" are worker
	// slots per tier and OPP grids are throttle levels. hmp.Default()
	// works for a generic 4+4-slot service; most callers define their own.
	Space *hmp.Platform

	// Cost is the per-tier, per-level cost model (the "power estimator"):
	// cost = α·(slots·utilization) + β. Build one by profiling, by
	// ReadModel, or by hand.
	Cost *power.LinearModel

	// Target is the heartbeat-rate band to hold.
	Target heartbeat.Target

	// Units is how many parallel units the application splits work into
	// (the paper's thread count T, driving the Table 3.1 split).
	Units int

	// Version selects the search flavour; HARS-EI is the default.
	Version core.Version

	// AdaptEvery is the adaptation period in heartbeats (default 10);
	// Window the rate window in beats (default 10).
	AdaptEvery int64
	Window     int

	// Clock defaults to the system clock.
	Clock Clock

	// InitState overrides the starting configuration (default: maximum).
	InitState *hmp.State
}

// Controller is the live HARS runtime manager.
type Controller struct {
	cfg   Config
	mon   *heartbeat.Monitor
	est   core.Estimators
	act   Actuator
	epoch time.Time

	mu        sync.Mutex
	state     hmp.State
	lastAdapt int64
	searches  int

	// OnDecision observes adaptations (called under the controller lock;
	// keep it fast).
	OnDecision func(from, to hmp.State, rate float64)
}

// NewController validates the configuration, applies the initial state
// through the actuator, and returns a ready controller.
func NewController(cfg Config, act Actuator) (*Controller, error) {
	if cfg.Space == nil {
		return nil, errors.New("live: Config.Space is required")
	}
	if err := cfg.Space.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cost == nil {
		return nil, errors.New("live: Config.Cost is required")
	}
	if !cfg.Target.Valid() {
		return nil, errors.New("live: Config.Target is not a valid band")
	}
	if cfg.Units <= 0 {
		return nil, errors.New("live: Config.Units must be positive")
	}
	if act == nil {
		return nil, errors.New("live: actuator is required")
	}
	if cfg.AdaptEvery <= 0 {
		cfg.AdaptEvery = 10
	}
	if cfg.Window <= 0 {
		cfg.Window = 10
	}
	if cfg.Clock == nil {
		cfg.Clock = SystemClock{}
	}
	c := &Controller{
		cfg:   cfg,
		mon:   heartbeat.NewMonitor("live", cfg.Window),
		est:   core.NewEstimators(cfg.Space, cfg.Units, cfg.Cost),
		act:   act,
		epoch: cfg.Clock.Now(),
	}
	c.mon.SetTarget(cfg.Target)
	st := hmp.MaxState(cfg.Space)
	if cfg.InitState != nil {
		st = *cfg.InitState
	}
	c.state = st
	act.Apply(st)
	return c, nil
}

// Beat registers one completed unit of work. Safe for concurrent use from
// any goroutine.
func (c *Controller) Beat() {
	c.mon.Beat(c.cfg.Clock.Now().Sub(c.epoch).Microseconds())
}

// Rate returns the current window heartbeat rate (beats/second).
func (c *Controller) Rate() float64 {
	rec, ok := c.mon.Latest()
	if !ok {
		return 0
	}
	return rec.WindowRate
}

// State returns the configuration currently applied.
func (c *Controller) State() hmp.State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Searches returns how many adaptation searches have run.
func (c *Controller) Searches() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.searches
}

// Poll runs one iteration of Algorithm 1: if the adaptation period has
// arrived and the window rate is outside the band, search the neighbourhood
// and actuate the winner. It reports whether the configuration changed.
func (c *Controller) Poll() bool {
	rec, ok := c.mon.Latest()
	if !ok {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if rec.Index < c.lastAdapt+c.cfg.AdaptEvery {
		return false
	}
	rate := rec.WindowRate
	if !heartbeat.OutsideBand(c.cfg.Target, rate) {
		return false
	}
	c.lastAdapt = rec.Index
	prm := c.cfg.Version.Params(rate > c.cfg.Target.Avg)
	res := core.Search(c.est, c.state, rate, c.cfg.Target, prm, core.Unbounded(c.cfg.Space))
	c.searches++
	if res.State == c.state {
		return false
	}
	from := c.state
	c.state = res.State
	if c.OnDecision != nil {
		c.OnDecision(from, res.State, rate)
	}
	c.act.Apply(res.State)
	return true
}

// Run polls on the given interval until the context is cancelled —
// the production control loop.
func (c *Controller) Run(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = 100 * time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.Poll()
		}
	}
}
