// Package thermal closes the thermal loop of the HARS reproduction: instead
// of scripting DVFS ceilings as external events, it derives them from
// simulated heat with a sense→model→actuate daemon layered over the machine,
// in the style of reflective runtimes (MARS) and model-driven resource
// managers.
//
// # The RC model
//
// Each cluster is one node of a lumped RC thermal network — a thermal
// capacitance C (J/K) holding the node's heat, a thermal resistance R (K/W)
// to the ambient sink, and an optional inter-cluster coupling conductance G
// (W/K) modeling shared silicon between the two clusters:
//
//	C_k · dT_k/dt = P_k + G·(T_j − T_k) − (T_k − T_amb)/R_k
//
// P_k is the cluster's electrical power for the tick, taken from the
// machine's power model (sim.Machine.LastTickPowerW) — including the
// leakage term, which the power side keeps honest by excluding
// hotplugged-off cores (sim.OnlinePowerModel). The equation is integrated
// with one forward-Euler step per simulator tick in a fixed evaluation
// order, so a replay is bit-for-bit reproducible; the per-tick temperature
// rise is bounded by P·Δt/C (≈ 10 mK at the defaults), which is also the
// slack the governor's trip guarantee carries.
//
// Steady state sits at T_amb + P·R (coupling aside): with the default
// constants the big cluster fully loaded at 1.6 GHz (≈ 9 W) heads toward
// ≈ 115 °C and trips, while at its lowest OPP (≈ 3 W) it settles near 55 °C,
// safely under the default 75 °C trip point — hard-throttling is therefore
// always sufficient to cool a cluster, which is what makes the governor's
// ceiling guarantee hold.
//
// # The governor
//
// Governor is a sim.Daemon implementing hysteretic throttling over three
// temperature zones per cluster:
//
//	T ≥ trip_c:              clamp the DVFS ceiling to min_level at once
//	                         (checked every tick — the emergency path)
//	throttle_c ≤ T < trip_c: lower the ceiling one level per period
//	release_c < T < throttle_c: hold (the hysteresis band)
//	T ≤ release_c:           raise the ceiling one level per period
//
// Ceilings move through sim.Machine.SetLevelCap, the same knob scripted
// thermal capping uses, so managers react through their existing
// bounds-clamping paths (core.MachineBounds, mphars.ReconcilePlatform).
// The governor counts its actuations (Trips, Throttles, Releases) and
// tracks each cluster's peak temperature; hars-scenario reports both in its
// summaries, and the scenario trace's "h" lines carry the temperatures,
// ceilings and actuation counts at every sample. The governor assumes it
// owns the ceilings; mixing it with scripted dvfs_cap events is
// last-writer-wins (the scenario format rejects the combination).
//
// Spec is the JSON configuration block (embedded in scenario files under
// "thermal"); DecodeSpec is its strict decoder. The zero Spec resolves to
// the default constants below.
package thermal

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/hmp"
	"repro/internal/sim"
)

// Default model and governor constants, chosen so the default platform's
// big cluster trips under sustained full load in a few simulated seconds
// (time constant R·C = 10 s for both clusters) while the little cluster's
// full-load steady state (≈ 62 °C) stays inside the hysteresis band.
const (
	DefaultAmbientC = 25.0
	DefaultTripC    = 75.0
	DefaultReleaseC = 60.0
	DefaultBigC     = 1.0  // J/K
	DefaultBigR     = 10.0 // K/W
	DefaultLittleC  = 0.5  // J/K
	DefaultLittleR  = 20.0 // K/W
	DefaultPeriodMS = 10   // graduated step cadence, in ticks (1 ms each)
)

// ClusterRC are one cluster node's lumped thermal constants. Zero fields
// resolve to the cluster's defaults.
type ClusterRC struct {
	// CapacitanceJPerK is the node's thermal capacitance C in J/K.
	CapacitanceJPerK float64 `json:"capacitance_j_per_k,omitempty"`
	// ResistanceKPerW is the node's thermal resistance R to ambient in K/W.
	ResistanceKPerW float64 `json:"resistance_k_per_w,omitempty"`
}

// Spec is the thermal configuration block of a scenario: model constants,
// governor thresholds, and the enable flag. The zero value (and any zero
// field) resolves to the package defaults; WithDefaults returns the resolved
// form. The block has no temperature-sample cadence: "sample_every_ms"
// inside it is an unknown field, which DecodeSpec and the scenario decoder
// reject.
type Spec struct {
	// Enabled turns the closed loop on. A disabled spec is still validated,
	// but no model or governor is attached — the run is bit-for-bit the
	// uninstrumented one.
	Enabled bool `json:"enabled"`

	// AmbientC is the heat-sink temperature in °C (default 25; negative
	// ambients are valid, but 0 means "default" — the repository's usual
	// zero-value convention).
	AmbientC float64 `json:"ambient_c,omitempty"`
	// InitC is the initial cluster temperature (default: ambient; 0 means
	// "default" here too).
	InitC float64 `json:"init_c,omitempty"`

	// TripC, ThrottleC, and ReleaseC are the governor's zone boundaries in
	// °C: hard-throttle at trip (default 75), step ceilings down above
	// throttle (default midway between release and trip), step them back up
	// below release (default 60). Must satisfy ambient < release <
	// throttle < trip.
	TripC     float64 `json:"trip_c,omitempty"`
	ThrottleC float64 `json:"throttle_c,omitempty"`
	ReleaseC  float64 `json:"release_c,omitempty"`

	// MinLevel is the ceiling floor the governor will not throttle below
	// (default 0, the lowest OPP).
	MinLevel int `json:"min_level,omitempty"`
	// PeriodTicks is the graduated step cadence in simulator ticks
	// (default 10). The trip clamp ignores it and fires every tick.
	PeriodTicks int `json:"period_ticks,omitempty"`

	// CouplingWPerK is the inter-cluster coupling conductance G in W/K
	// (default 0: thermally isolated clusters).
	CouplingWPerK float64 `json:"coupling_w_per_k,omitempty"`

	// Big and Little override the per-cluster RC constants.
	Big    *ClusterRC `json:"big,omitempty"`
	Little *ClusterRC `json:"little,omitempty"`
}

// WithDefaults returns the spec with every zero field replaced by its
// default, the form the model and governor actually run with.
func (s Spec) WithDefaults() Spec {
	if s.AmbientC == 0 {
		s.AmbientC = DefaultAmbientC
	}
	if s.TripC == 0 {
		s.TripC = DefaultTripC
	}
	if s.ReleaseC == 0 {
		s.ReleaseC = DefaultReleaseC
	}
	if s.ThrottleC == 0 {
		s.ThrottleC = (s.ReleaseC + s.TripC) / 2
	}
	if s.InitC == 0 {
		s.InitC = s.AmbientC
	}
	if s.PeriodTicks == 0 {
		s.PeriodTicks = DefaultPeriodMS
	}
	big := ClusterRC{CapacitanceJPerK: DefaultBigC, ResistanceKPerW: DefaultBigR}
	if s.Big != nil {
		if s.Big.CapacitanceJPerK != 0 {
			big.CapacitanceJPerK = s.Big.CapacitanceJPerK
		}
		if s.Big.ResistanceKPerW != 0 {
			big.ResistanceKPerW = s.Big.ResistanceKPerW
		}
	}
	little := ClusterRC{CapacitanceJPerK: DefaultLittleC, ResistanceKPerW: DefaultLittleR}
	if s.Little != nil {
		if s.Little.CapacitanceJPerK != 0 {
			little.CapacitanceJPerK = s.Little.CapacitanceJPerK
		}
		if s.Little.ResistanceKPerW != 0 {
			little.ResistanceKPerW = s.Little.ResistanceKPerW
		}
	}
	s.Big, s.Little = &big, &little
	return s
}

// minTimeConstant is the smallest permitted per-node RC time constant
// (with coupling folded in): C / (1/R + G) ≥ 10 ms. The model integrates
// with one forward-Euler step per simulator tick, which is stable only
// while the step is well under the time constant; ten 1 ms ticks (sim.TickLen)
// of headroom keeps divergent (sign-flipping, NaN-producing) networks out
// by construction.
const minTimeConstant = 0.010 // seconds

// Validate checks the spec after default resolution: positive RC constants,
// a forward-Euler-stable network, ordered thresholds, non-negative cadences
// and floors.
func (s Spec) Validate() error {
	r := s.WithDefaults()
	for _, c := range []struct {
		name string
		rc   *ClusterRC
	}{{"big", r.Big}, {"little", r.Little}} {
		if c.rc.CapacitanceJPerK <= 0 {
			return fmt.Errorf("thermal: %s capacitance_j_per_k must be positive, got %v", c.name, c.rc.CapacitanceJPerK)
		}
		if c.rc.ResistanceKPerW <= 0 {
			return fmt.Errorf("thermal: %s resistance_k_per_w must be positive, got %v", c.name, c.rc.ResistanceKPerW)
		}
		if r.CouplingWPerK >= 0 {
			if tau := c.rc.CapacitanceJPerK / (1/c.rc.ResistanceKPerW + r.CouplingWPerK); tau < minTimeConstant {
				return fmt.Errorf("thermal: %s RC time constant %.2g s is below %v s — the per-tick Euler step would be unstable",
					c.name, tau, minTimeConstant)
			}
		}
	}
	if !(r.AmbientC < r.ReleaseC && r.ReleaseC < r.ThrottleC && r.ThrottleC < r.TripC) {
		return fmt.Errorf("thermal: thresholds must satisfy ambient < release < throttle < trip, got %v < %v < %v < %v",
			r.AmbientC, r.ReleaseC, r.ThrottleC, r.TripC)
	}
	if r.MinLevel < 0 {
		return fmt.Errorf("thermal: negative min_level %d", r.MinLevel)
	}
	if r.PeriodTicks < 0 {
		return fmt.Errorf("thermal: negative period_ticks %d", r.PeriodTicks)
	}
	if r.CouplingWPerK < 0 {
		return fmt.Errorf("thermal: negative coupling_w_per_k %v", r.CouplingWPerK)
	}
	return nil
}

// DecodeSpec parses and validates a standalone thermal configuration block.
// Unknown fields are rejected so typos surface instead of silently running
// with defaults.
func DecodeSpec(r io.Reader) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("thermal: decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Model is the two-node lumped RC thermal network. It is pure state plus
// arithmetic — stepping it is the caller's job (the Governor steps it once
// per simulator tick) — so unit and property tests can drive it with
// synthetic power traces.
type Model struct {
	ambient  float64
	coupling float64
	rc       [hmp.NumClusters]ClusterRC
	temp     [hmp.NumClusters]float64
}

// NewModel builds a model from the (default-resolved) spec.
func NewModel(spec Spec) *Model {
	r := spec.WithDefaults()
	md := &Model{ambient: r.AmbientC, coupling: r.CouplingWPerK}
	md.rc[hmp.Big] = *r.Big
	md.rc[hmp.Little] = *r.Little
	for k := range md.temp {
		md.temp[k] = r.InitC
	}
	return md
}

// TempC returns cluster k's current temperature in °C.
func (md *Model) TempC(k hmp.ClusterKind) float64 { return md.temp[k] }

// AmbientC returns the ambient sink temperature.
func (md *Model) AmbientC() float64 { return md.ambient }

// SteadyC returns the temperature cluster k would settle at under constant
// power watts, ignoring inter-cluster coupling: ambient + P·R.
func (md *Model) SteadyC(k hmp.ClusterKind, watts float64) float64 {
	return md.ambient + watts*md.rc[k].ResistanceKPerW
}

// MaxStepC returns the largest temperature rise cluster k can see in one
// step of dtSec seconds under power watts, ignoring coupling inflow — the
// slack the governor's trip guarantee carries.
func (md *Model) MaxStepC(k hmp.ClusterKind, watts, dtSec float64) float64 {
	return watts * dtSec / md.rc[k].CapacitanceJPerK
}

// Step advances the network by dtSec seconds with per-cluster power input
// watts. One forward-Euler step, fixed evaluation order: byte-identical
// replays depend on it.
func (md *Model) Step(dtSec float64, watts [hmp.NumClusters]float64) {
	md.temp = md.stepped(md.temp, dtSec, watts)
}

// stepped returns the temperatures one forward-Euler step takes temp to,
// without touching the model — the pure form of Step, shared with the
// governor's window loop so the windowed and the applied step are the same
// IEEE operations.
func (md *Model) stepped(temp [hmp.NumClusters]float64, dtSec float64, watts [hmp.NumClusters]float64) [hmp.NumClusters]float64 {
	// Heat flowing from the big node into the little node through the
	// coupling conductance (negative when little is hotter).
	flow := md.coupling * (temp[hmp.Big] - temp[hmp.Little])
	dLittle := (watts[hmp.Little] + flow - (temp[hmp.Little]-md.ambient)/md.rc[hmp.Little].ResistanceKPerW) *
		dtSec / md.rc[hmp.Little].CapacitanceJPerK
	dBig := (watts[hmp.Big] - flow - (temp[hmp.Big]-md.ambient)/md.rc[hmp.Big].ResistanceKPerW) *
		dtSec / md.rc[hmp.Big].CapacitanceJPerK
	temp[hmp.Little] += dLittle
	temp[hmp.Big] += dBig
	return temp
}

// Governor is the closed-loop thermal daemon: each tick it feeds the
// machine's per-cluster power into the RC model, then applies the hysteretic
// throttling policy described in the package comment through SetLevelCap.
type Governor struct {
	model *Model
	spec  Spec // default-resolved

	ticks int64

	trips     int
	throttles int
	releases  int
	peak      [hmp.NumClusters]float64

	// window is the state SteadyBound reached after windowTicks ticks,
	// kept for SteadyAdvance to commit — private scratch no later observer
	// reads, so a window bound tighter elsewhere leaves it harmlessly stale.
	window      windowState
	windowTicks int64
}

// windowState is the governor state a certified window advances: the RC
// temperatures, the peaks and the tick counter.
type windowState struct {
	temp  [hmp.NumClusters]float64
	peak  [hmp.NumClusters]float64
	ticks int64
}

// NewGovernor validates the spec and builds a governor with a fresh model.
func NewGovernor(spec Spec) (*Governor, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r := spec.WithDefaults()
	g := &Governor{model: NewModel(r), spec: r}
	for k := range g.peak {
		g.peak[k] = g.model.temp[k]
	}
	return g, nil
}

// Model returns the governor's thermal model (for observation; tests read
// temperatures through it).
func (g *Governor) Model() *Model { return g.model }

// TempC returns cluster k's current modeled temperature.
func (g *Governor) TempC(k hmp.ClusterKind) float64 { return g.model.TempC(k) }

// PeakC returns the highest temperature cluster k has reached.
func (g *Governor) PeakC(k hmp.ClusterKind) float64 { return g.peak[k] }

// Trips returns how many times the emergency trip clamp fired.
func (g *Governor) Trips() int { return g.trips }

// Throttles returns how many ceiling-lowering actuations the governor has
// applied (graduated steps plus trip clamps).
func (g *Governor) Throttles() int { return g.throttles }

// Releases returns how many ceiling-raising actuations the governor has
// applied.
func (g *Governor) Releases() int { return g.releases }

// Spec returns the governor's default-resolved configuration.
func (g *Governor) Spec() Spec { return g.spec }

// Tick implements sim.Daemon. Daemons run after power integration, so the
// model integrates the tick that just executed; the trip clamp is evaluated
// every tick, bounding overshoot past trip_c to one tick's temperature rise.
func (g *Governor) Tick(m *sim.Machine) {
	var watts [hmp.NumClusters]float64
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		watts[k] = m.LastTickPowerW(k)
	}
	g.model.Step(sim.Seconds(sim.TickLen), watts)
	g.ticks++
	stepEdge := g.ticks%int64(g.spec.PeriodTicks) == 0

	plat := m.Platform()
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		t := g.model.TempC(k)
		if t > g.peak[k] {
			g.peak[k] = t
		}
		maxLv := plat.Clusters[k].MaxLevel()
		minLv := g.spec.MinLevel
		if minLv > maxLv {
			minLv = maxLv
		}
		cap := m.LevelCap(k)
		switch {
		case t >= g.spec.TripC:
			if cap > minLv {
				m.SetLevelCap(k, minLv)
				g.trips++
				g.throttles++
			}
		case t >= g.spec.ThrottleC:
			if stepEdge && cap > minLv {
				m.SetLevelCap(k, cap-1)
				g.throttles++
			}
		case t <= g.spec.ReleaseC:
			if stepEdge && cap < maxLv {
				m.SetLevelCap(k, cap+1)
				g.releases++
			}
		}
	}
}

// SteadyBegin implements sim.SteadyDaemon: the governor charges no overhead
// and keeps purely internal per-tick state (the RC integrator, its tick
// counter, the peak tracker), so inside a steady window — where the machine
// certifies its per-cluster power constant — every Tick that moves no
// ceiling is internal-only. Whether a given
// tick qualifies depends on the evolving temperatures, so the decision
// lives in the declared Ticker; SteadyBegin itself always accepts.
func (g *Governor) SteadyBegin(m *sim.Machine) (sim.SteadyEntry, bool) {
	return sim.SteadyEntry{Ticker: g}, true
}

// SteadyBound implements sim.SteadyTicker: it loops the RC step over the
// next n ticks (the exact IEEE operations Tick's model.Step performs) and
// stops before the first tick whose Tick would move a ceiling at the
// resulting temperatures — a trip clamp, or a graduated step or release on
// a period edge — so the actuation happens on the general path. The state
// reached is kept for SteadyAdvance.
func (g *Governor) SteadyBound(m *sim.Machine, n int64) int64 {
	g.window = g.state()
	g.windowTicks = g.advance(m, &g.window, n)
	return g.windowTicks
}

// SteadyAdvance implements sim.SteadyTicker: it commits the state of n
// internal-only Ticks, the one SteadyBound reached when the window kept its
// bound and a recomputation when another ticker cut it shorter.
func (g *Governor) SteadyAdvance(m *sim.Machine, n int64) {
	st := g.window
	if n != g.windowTicks {
		st = g.state()
		g.advance(m, &st, n)
	}
	g.model.temp, g.peak, g.ticks = st.temp, st.peak, st.ticks
}

// state returns the governor's current window state.
func (g *Governor) state() windowState {
	return windowState{temp: g.model.temp, peak: g.peak, ticks: g.ticks}
}

// advance runs up to n window ticks of Tick's internal effects on st, in
// Tick's order — the model step, the tick count and the peaks — and
// returns how many it ran: it stops before the first tick that would move a
// ceiling. The machine is as it stands at the window's start.
func (g *Governor) advance(m *sim.Machine, st *windowState, n int64) int64 {
	var watts [hmp.NumClusters]float64
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		watts[k] = m.LastTickPowerW(k)
	}
	dt := sim.Seconds(sim.TickLen)
	plat := m.Platform()
	var minLv, maxLv, caps [hmp.NumClusters]int
	for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
		maxLv[k] = plat.Clusters[k].MaxLevel()
		minLv[k] = min(g.spec.MinLevel, maxLv[k])
		caps[k] = m.LevelCap(k)
	}
	for j := int64(0); j < n; j++ {
		temp := g.model.stepped(st.temp, dt, watts)
		stepEdge := (st.ticks+1)%int64(g.spec.PeriodTicks) == 0
		for k := hmp.ClusterKind(0); k < hmp.NumClusters; k++ {
			t, cap := temp[k], caps[k]
			switch {
			case t >= g.spec.TripC:
				if cap > minLv[k] {
					return j
				}
			case t >= g.spec.ThrottleC:
				if stepEdge && cap > minLv[k] {
					return j
				}
			case t <= g.spec.ReleaseC:
				if stepEdge && cap < maxLv[k] {
					return j
				}
			}
		}
		st.temp = temp
		st.ticks++
		for k := range st.peak {
			if temp[k] > st.peak[k] {
				st.peak[k] = temp[k]
			}
		}
	}
	return n
}
