package hmp

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSON serializes the platform description, so users can capture and
// share custom board definitions.
func (p *Platform) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p); err != nil {
		return fmt.Errorf("hmp: encode platform: %w", err)
	}
	return nil
}

// ReadPlatform parses and validates a platform description produced by
// WriteJSON (or written by hand for a custom board). Unknown fields are
// rejected. scenario.Decode reads every inline node board through it,
// once per distinct board text.
func ReadPlatform(r io.Reader) (*Platform, error) {
	var p Platform
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("hmp: decode platform: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.Normalize()
	return &p, nil
}

// Normalize fixes up the fields that are redundant with structure — the
// per-cluster Kind tags, which mirror array position — so a hand-written or
// embedded JSON description can omit them. ReadPlatform calls it; code that
// builds a Platform some other way must normalize it after validation
// (scenario validation does, through Normalized, for node boards set in Go).
func (p *Platform) Normalize() {
	p.Clusters[Little].Kind = Little
	p.Clusters[Big].Kind = Big
}

// Normalized returns p itself when its Kind tags already match their
// positions, and a normalized copy otherwise. It never writes p, so a board
// shared between goroutines can be normalized by each of them.
func (p *Platform) Normalized() *Platform {
	if p.Clusters[Little].Kind == Little && p.Clusters[Big].Kind == Big {
		return p
	}
	q := *p
	q.Normalize()
	return &q
}
