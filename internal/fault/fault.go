// Package fault is the seeded, deterministic fault-injection and recovery
// layer: it defines the scenario `faults` block (scripted and seeded-random
// node crashes, permanent core failures, transient checkpoint-transfer
// failures), expands the random fault timeline as a pure function of the
// seed, and provides the runtime mechanisms the fleet scheduler composes —
// a heartbeat-timeout failure detector and a capped exponential backoff
// with jittered-but-seeded retry delays.
//
// Everything here is deterministic: two runs of the same spec produce the
// same crashes at the same ticks, the same retry delays, and the same
// transfer-failure outcomes, so fault scenarios replay byte-identically.
package fault

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
)

// Defaults applied by Runtime when the spec leaves a knob zero.
const (
	DefaultHeartbeatTimeoutMS = 300
	DefaultCheckpointEveryMS  = 1000
	DefaultRetryBaseMS        = 50
	DefaultRetryMaxMS         = 2000
	DefaultRetryJitterMS      = 25
	DefaultRandomDownMS       = 2000
	DefaultRandomMaxCrashes   = 16

	// MaxCrashes bounds the total expanded crash timeline (scripted plus
	// random), mirroring the scenario layer's occurrence cap.
	MaxCrashes = 1000
)

// Spec is the scenario `faults` block. All fields are optional; the zero
// value injects no faults but still arms the recovery machinery (detector,
// background checkpoints, retry state) with its defaults.
type Spec struct {
	// Seed drives every random draw the fault layer makes: the random crash
	// timeline, transfer-failure coin flips, and retry jitter each use a
	// stream derived from it. Zero is a valid seed.
	Seed int64 `json:"seed,omitempty"`

	// HeartbeatTimeoutMS is how long a node must stay silent before the
	// fleet detector declares it failed. Default 300 ms.
	HeartbeatTimeoutMS int64 `json:"heartbeat_timeout_ms,omitempty"`

	// CheckpointEveryMS is the background snapshot cadence: work lost on a
	// crash is bounded by this interval. Default 1000 ms; negative disables
	// background checkpoints (crashed apps then restart from scratch).
	CheckpointEveryMS int64 `json:"checkpoint_every_ms,omitempty"`

	// TransferFailProb is the probability that restoring a checkpoint onto
	// a node fails transiently (the transfer, not the node), in [0, 1).
	TransferFailProb float64 `json:"transfer_fail_prob,omitempty"`

	// RetryBaseMS/RetryMaxMS/RetryJitterMS shape the capped exponential
	// backoff applied after a failed transfer: attempt n waits
	// min(base·2ⁿ⁻¹, max) plus a seeded jitter in [0, jitter].
	// Defaults 50 / 2000 / 25 ms.
	RetryBaseMS   int64 `json:"retry_base_ms,omitempty"`
	RetryMaxMS    int64 `json:"retry_max_ms,omitempty"`
	RetryJitterMS int64 `json:"retry_jitter_ms,omitempty"`

	// Crashes are scripted node crashes.
	Crashes []Crash `json:"crashes,omitempty"`

	// CoreFailures are scripted permanent core failures: the core goes
	// offline at the given time and never comes back (a node crash and
	// recovery does not revive it).
	CoreFailures []CoreFailure `json:"core_failures,omitempty"`

	// Random, when present, adds a seeded-random crash process on top of
	// the scripted timeline.
	Random *RandomCrashes `json:"random,omitempty"`
}

// Crash is one scripted node crash.
type Crash struct {
	// Node names the crashing node (scenario `nodes` entry).
	Node string `json:"node"`
	// AtMS is the crash time.
	AtMS int64 `json:"at_ms"`
	// DownMS is how long the node stays down; 0 means it never recovers.
	DownMS int64 `json:"down_ms,omitempty"`
}

// CoreFailure is one scripted permanent core failure.
type CoreFailure struct {
	Node string `json:"node"`
	AtMS int64  `json:"at_ms"`
	// CPU is the failing core's global CPU number on the node's platform.
	CPU int `json:"cpu"`
}

// RandomCrashes is a seeded Poisson crash process over the whole fleet:
// crashes arrive with exponential inter-arrival times at the given rate,
// each hitting a uniformly drawn node.
type RandomCrashes struct {
	// RatePerMin is the mean number of crashes per minute, fleet-wide.
	RatePerMin float64 `json:"rate_per_min"`
	// DownMS is how long each random crash keeps its node down
	// (default 2000 ms).
	DownMS int64 `json:"down_ms,omitempty"`
	// MaxCrashes caps the expanded random timeline (default 16, hard cap
	// shared with the scripted timeline).
	MaxCrashes int `json:"max_crashes,omitempty"`
}

// Validate checks the spec's internal consistency (reference checks — node
// names, CPU ranges — are the embedding scenario's job, which knows the
// fleet topology). durationMS is the run length fault times must fall in;
// no time field may exceed sim.MaxMS.
func (s *Spec) Validate(durationMS int64) error {
	if s.HeartbeatTimeoutMS < 0 {
		return fmt.Errorf("faults: negative heartbeat_timeout_ms %d", s.HeartbeatTimeoutMS)
	}
	for _, err := range []error{
		capMS("heartbeat_timeout_ms", s.HeartbeatTimeoutMS), capMS("checkpoint_every_ms", s.CheckpointEveryMS),
		capMS("retry_base_ms", s.RetryBaseMS), capMS("retry_max_ms", s.RetryMaxMS), capMS("retry_jitter_ms", s.RetryJitterMS),
	} {
		if err != nil {
			return err
		}
	}
	if s.TransferFailProb < 0 || s.TransferFailProb >= 1 {
		return fmt.Errorf("faults: transfer_fail_prob %v outside [0, 1)", s.TransferFailProb)
	}
	if s.RetryBaseMS < 0 || s.RetryMaxMS < 0 || s.RetryJitterMS < 0 {
		return fmt.Errorf("faults: negative retry backoff parameter")
	}
	if s.RetryBaseMS > 0 && s.RetryMaxMS > 0 && s.RetryBaseMS > s.RetryMaxMS {
		return fmt.Errorf("faults: retry_base_ms %d exceeds retry_max_ms %d", s.RetryBaseMS, s.RetryMaxMS)
	}
	// A crash must stay down longer than the heartbeat timeout (or forever):
	// the crash kills the node's processes, so a blip the detector cannot
	// see would strand its applications undetectably.
	timeoutMS := s.HeartbeatTimeoutMS
	if timeoutMS == 0 {
		timeoutMS = DefaultHeartbeatTimeoutMS
	}
	for i, c := range s.Crashes {
		if c.Node == "" {
			return fmt.Errorf("faults: crash %d names no node", i)
		}
		if c.AtMS < 0 || c.AtMS > durationMS {
			return fmt.Errorf("faults: crash %d at %d ms outside run of %d ms", i, c.AtMS, durationMS)
		}
		if c.DownMS < 0 {
			return fmt.Errorf("faults: crash %d has negative down_ms", i)
		}
		if err := capMS(fmt.Sprintf("crash %d down_ms", i), c.DownMS); err != nil {
			return err
		}
		if c.DownMS > 0 && c.DownMS <= timeoutMS {
			return fmt.Errorf("faults: crash %d down_ms %d not above the heartbeat timeout %d ms (the crash would be undetectable)",
				i, c.DownMS, timeoutMS)
		}
	}
	for i, cf := range s.CoreFailures {
		if cf.Node == "" {
			return fmt.Errorf("faults: core failure %d names no node", i)
		}
		if cf.AtMS < 0 || cf.AtMS > durationMS {
			return fmt.Errorf("faults: core failure %d at %d ms outside run of %d ms", i, cf.AtMS, durationMS)
		}
		if cf.CPU < 0 {
			return fmt.Errorf("faults: core failure %d has negative cpu", i)
		}
	}
	if r := s.Random; r != nil {
		if r.RatePerMin < 0 {
			return fmt.Errorf("faults: negative random crash rate %v", r.RatePerMin)
		}
		if r.DownMS < 0 {
			return fmt.Errorf("faults: negative random down_ms %d", r.DownMS)
		}
		if err := capMS("random down_ms", r.DownMS); err != nil {
			return err
		}
		downMS := r.DownMS
		if downMS == 0 {
			downMS = DefaultRandomDownMS
		}
		if downMS <= timeoutMS {
			return fmt.Errorf("faults: random down_ms %d not above the heartbeat timeout %d ms (the crashes would be undetectable)",
				downMS, timeoutMS)
		}
		if r.MaxCrashes < 0 || r.MaxCrashes > MaxCrashes {
			return fmt.Errorf("faults: random max_crashes %d outside [0, %d]", r.MaxCrashes, MaxCrashes)
		}
	}
	if n := len(s.Crashes) + len(s.CoreFailures); n > MaxCrashes {
		return fmt.Errorf("faults: %d scripted faults exceed the cap of %d", n, MaxCrashes)
	}
	return nil
}

// capMS rejects a time field above sim.MaxMS, past which converting it to
// simulated time would overflow.
func capMS(name string, ms int64) error {
	if ms > sim.MaxMS {
		return fmt.Errorf("faults: %s %d above the %d ms cap", name, ms, int64(sim.MaxMS))
	}
	return nil
}

// ExpandedCrash is one crash in the fully expanded timeline, with the
// target resolved to a node index.
type ExpandedCrash struct {
	Node   int // fleet node index
	AtMS   int64
	DownMS int64 // 0 = never recovers
}

// ExpandRandom expands the seeded-random crash process deterministically:
// exponential inter-arrival gaps at RatePerMin, each crash hitting a
// uniformly drawn node. A nil receiver, a zero rate, or an empty fleet
// yields no crashes and consumes no random draws. The stream is a pure
// function of (seed, durationMS, nodes).
func (r *RandomCrashes) ExpandRandom(seed, durationMS int64, nodes int) []ExpandedCrash {
	if r == nil || r.RatePerMin <= 0 || nodes <= 0 || durationMS <= 0 {
		return nil
	}
	max := r.MaxCrashes
	if max <= 0 {
		max = DefaultRandomMaxCrashes
	}
	down := r.DownMS
	if down <= 0 {
		down = DefaultRandomDownMS
	}
	meanGapMS := 60_000 / r.RatePerMin
	rng := rand.New(rand.NewSource(seed))
	var out []ExpandedCrash
	at := 0.0
	for len(out) < max {
		at += rng.ExpFloat64() * meanGapMS
		ms := int64(at)
		if ms >= durationMS {
			break
		}
		out = append(out, ExpandedCrash{
			Node:   rng.Intn(nodes),
			AtMS:   ms,
			DownMS: down,
		})
	}
	return out
}
