package scenario

import (
	"fmt"
	"math/rand"

	"repro/internal/workload"
)

// maxStreamApps bounds how many arrivals one stream may expand to when the
// stream declares no cap of its own; maxStreamAppsHard is the largest
// max_apps a stream may declare, and maxArrivalApps bounds the total
// expansion across all streams — like the events path's maxOccurrences,
// these keep a pathological document from hanging or exhausting memory in
// Decode/Validate (which the fuzzer feeds arbitrary JSON).
const (
	maxStreamApps     = 64
	maxStreamAppsHard = 1000
	maxArrivalApps    = 10_000
)

// RateStep is one piece of a traffic trace's piecewise-constant rate
// profile: the stream generates arrivals at per_s mean arrivals per second
// until until_ms (0 on the last step = the end of the run).
type RateStep struct {
	UntilMS int64   `json:"until_ms,omitempty"`
	PerS    float64 `json:"per_s"`
}

// ArrivalStream is a declarative traffic trace: a seeded Poisson arrival
// process with a piecewise-constant rate profile, expanded into concrete
// application arrivals at run time. Each arrival is a copy of the stream's
// application template named "<name>-<i>", optionally pinned to one node
// and departing lifetime_ms after it starts. The same stream and seed
// always expand to the same arrivals, so replays are byte-identical.
type ArrivalStream struct {
	// Name prefixes the generated app names (required, unique among apps
	// and streams).
	Name string `json:"name"`
	// Node pins every generated arrival to one named node (optional).
	Node string `json:"node,omitempty"`
	// Seed drives the arrival draw (default: the stream's index).
	Seed int64 `json:"seed,omitempty"`
	// Rate is the piecewise-constant profile, in ascending until_ms order.
	Rate []RateStep `json:"rate"`
	// MaxApps caps the expansion (default 64); generation stops once the
	// cap is reached.
	MaxApps int `json:"max_apps,omitempty"`
	// LifetimeMS makes every arrival depart that long after it starts
	// (clamped to the run; 0 = runs to the end).
	LifetimeMS int64 `json:"lifetime_ms,omitempty"`

	// The application template, as in AppSpec.
	Bench      string      `json:"bench"`
	Threads    int         `json:"threads,omitempty"`
	TargetFrac float64     `json:"target_frac,omitempty"`
	Target     *TargetSpec `json:"target,omitempty"`
	HBWindow   int         `json:"hb_window,omitempty"`
	InitBig    *int        `json:"init_big,omitempty"`
	InitLittle *int        `json:"init_little,omitempty"`
	SLO        *SLOSpec    `json:"slo,omitempty"`
}

// validateStream checks the stream's own fields (the generated AppSpecs go
// through the regular per-app validation afterwards).
func (st *ArrivalStream) validate(i int, durationMS int64) error {
	if st.Name == "" {
		return fmt.Errorf("scenario: arrival stream %d has no name", i)
	}
	if _, ok := workload.ByShort(st.Bench); !ok {
		return fmt.Errorf("scenario: arrival stream %q: unknown bench %q", st.Name, st.Bench)
	}
	if st.MaxApps < 0 || st.LifetimeMS < 0 || st.Seed < 0 || st.Threads < 0 {
		return fmt.Errorf("scenario: arrival stream %q: negative field", st.Name)
	}
	if st.MaxApps > maxStreamAppsHard {
		return fmt.Errorf("scenario: arrival stream %q: max_apps %d above the %d cap", st.Name, st.MaxApps, maxStreamAppsHard)
	}
	if st.Threads > maxAppThreads {
		return fmt.Errorf("scenario: arrival stream %q: threads %d above the %d cap", st.Name, st.Threads, maxAppThreads)
	}
	if len(st.Rate) == 0 {
		return fmt.Errorf("scenario: arrival stream %q: no rate profile", st.Name)
	}
	prev := int64(0)
	for j, rs := range st.Rate {
		if rs.PerS < 0 {
			return fmt.Errorf("scenario: arrival stream %q: negative rate %v", st.Name, rs.PerS)
		}
		until := rs.UntilMS
		if until == 0 {
			if j != len(st.Rate)-1 {
				return fmt.Errorf("scenario: arrival stream %q: until_ms 0 only on the last step", st.Name)
			}
			until = durationMS
		}
		if until <= prev || until > durationMS {
			return fmt.Errorf("scenario: arrival stream %q: step %d until_ms %d outside (%d, %d]",
				st.Name, j, rs.UntilMS, prev, durationMS)
		}
		prev = until
	}
	return nil
}

// expand draws the stream's arrivals. A Poisson process with a piecewise-
// constant rate is memoryless, so sampling each step independently with
// its own exponential inter-arrival clock is exact — and keeps every
// step's draws a pure function of the seed and the profile.
func (st *ArrivalStream) expand(idx int, durationMS int64) []AppSpec {
	seed := st.Seed
	if seed == 0 {
		seed = int64(idx + 1)
	}
	maxApps := st.MaxApps
	if maxApps <= 0 {
		maxApps = maxStreamApps
	}
	rng := rand.New(rand.NewSource(seed))
	var out []AppSpec
	from := int64(0)
	for _, rs := range st.Rate {
		until := rs.UntilMS
		if until == 0 {
			until = durationMS
		}
		if rs.PerS > 0 {
			t := float64(from)
			for {
				t += rng.ExpFloat64() / rs.PerS * 1000
				at := int64(t)
				if at >= until || len(out) >= maxApps {
					break
				}
				a := AppSpec{
					Name:       fmt.Sprintf("%s-%d", st.Name, len(out)),
					Bench:      st.Bench,
					Threads:    st.Threads,
					StartMS:    at,
					TargetFrac: st.TargetFrac,
					Target:     st.Target,
					HBWindow:   st.HBWindow,
					InitBig:    st.InitBig,
					InitLittle: st.InitLittle,
					Node:       st.Node,
					SLO:        st.SLO,
				}
				if st.LifetimeMS > 0 {
					if stop := at + st.LifetimeMS; stop < durationMS {
						a.StopMS = stop
					}
				}
				out = append(out, a)
			}
		}
		from = until
		if len(out) >= maxApps {
			break
		}
	}
	return out
}

// expandApps returns the run's full application list: the declared apps
// followed by every stream's expansion, in stream order. The scenario
// document is not mutated.
func (sc *Scenario) expandApps() ([]AppSpec, error) {
	if len(sc.Arrivals) == 0 {
		return sc.Apps, nil
	}
	apps := append([]AppSpec(nil), sc.Apps...)
	total := 0
	for i := range sc.Arrivals {
		st := &sc.Arrivals[i]
		if err := st.validate(i, sc.DurationMS); err != nil {
			return nil, err
		}
		limit := st.MaxApps
		if limit <= 0 {
			limit = maxStreamApps
		}
		if total += limit; total > maxArrivalApps {
			return nil, fmt.Errorf("scenario: arrival streams may expand to more than %d apps", maxArrivalApps)
		}
		apps = append(apps, st.expand(i, sc.DurationMS)...)
	}
	return apps, nil
}
