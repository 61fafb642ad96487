// Package campaign turns a whole figure's sweep into one observable unit of
// work. A Manifest declares the sweep as a config grid (base spec × axis
// values) plus a per-point precision target; Expand resolves it into labeled,
// content-keyed points; a Manager submits every point as one batch through
// the scheduler and aggregates per-point convergence telemetry — CI
// half-width trajectory, warm vs. cold shot accounting, shots-to-target and
// ETA estimates — published three ways that share identifiers: an ND-JSON
// event stream (GET /v1/campaign/stream), campaign gauges and counters in the
// scheduler's metrics registry, and structured log records carrying the same
// campaign/point/job IDs the span traces use. One grep on any of those IDs
// lines up all three signals.
//
// The campaign layer adds no new execution semantics: points are ordinary
// scheduler jobs, so they deduplicate, cache, checkpoint and merge exactly as
// individually-submitted requests do — a campaign's per-point tallies are
// bit-identical to point-by-point submission, and a warm re-submit streams
// every point straight to "done" with zero cold units.
package campaign

import (
	"fmt"

	"repro/internal/experiment"
	"repro/internal/service"
)

// Manifest declares a whole sweep: a base config, the grid axes to vary, and
// the precision target each point runs to. It is the POST /v1/campaign wire
// format and deliberately reuses the service's ConfigSpec/Precision wire
// types, so a manifest point round-trips into exactly the request a client
// would have POSTed to /v1/run by hand.
type Manifest struct {
	// Name labels the campaign in status views and logs
	// ("figure14"); optional.
	Name string `json:"name,omitempty"`
	// Base is the config template every grid point starts from. Axis values
	// below override its Distance/Policy/P per point; an empty axis keeps the
	// base value.
	Base service.ConfigSpec `json:"base"`
	// Distances, Policies and Ps are the grid axes; the expansion is their
	// cross product over Base.
	Distances []int     `json:"distances,omitempty"`
	Policies  []string  `json:"policies,omitempty"`
	Ps        []float64 `json:"ps,omitempty"`
	// Points appends explicit, fully-specified points after the grid
	// (irregular sweeps, single ablation points).
	Points []PointSpec `json:"points,omitempty"`
	// Precision is the default per-point stopping rule; a PointSpec may
	// override it.
	Precision service.Precision `json:"precision"`
}

// PointSpec is one explicit (non-grid) manifest point.
type PointSpec struct {
	// Label overrides the auto-generated "d=…/policy/p=…" label.
	Label  string             `json:"label,omitempty"`
	Config service.ConfigSpec `json:"config"`
	// Precision, when non-nil, overrides the manifest default for this point.
	Precision *service.Precision `json:"precision,omitempty"`
}

// Point is one expanded sweep point: the wire spec it came from, the resolved
// experiment config, its content key (the store/cache identity shared with
// /v1/run submissions), and the precision it runs to.
type Point struct {
	Label  string
	Spec   service.ConfigSpec
	Config experiment.Config
	Key    string
	Prec   service.Precision
}

// Expand resolves the manifest into its points: the Distances × Policies × Ps
// grid over Base, then the explicit Points. Every point is validated the way
// /v1/run validates a submission, labeled (auto "d=3/eraser/p=0.001" unless
// overridden), and content-keyed. Two points resolving to the same config key
// are an error — they would be one deduplicated job wearing two labels.
func (m Manifest) Expand() ([]Point, error) {
	var pts []Point
	seen := make(map[string]string) // key -> label
	add := func(label string, spec service.ConfigSpec, prec service.Precision) error {
		cfg, err := spec.Config()
		if err != nil {
			return fmt.Errorf("campaign: point %d: %w", len(pts), err)
		}
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("campaign: point %d: %w", len(pts), err)
		}
		key := cfg.Key()
		if label == "" {
			label = fmt.Sprintf("d=%d/%s/p=%g", cfg.Distance, spec.Policy, cfg.P)
		}
		if prev, dup := seen[key]; dup {
			return fmt.Errorf("campaign: points %q and %q resolve to the same config key", prev, label)
		}
		seen[key] = label
		pts = append(pts, Point{Label: label, Spec: spec, Config: cfg, Key: key, Prec: prec})
		return nil
	}

	// A nil axis contributes the base value; the sentinel zero elements below
	// mean "leave the base field alone".
	ds := m.Distances
	if len(ds) == 0 {
		ds = []int{0}
	}
	pols := m.Policies
	if len(pols) == 0 {
		pols = []string{""}
	}
	ps := m.Ps
	if len(ps) == 0 {
		ps = []float64{0}
	}
	for _, d := range ds {
		for _, pol := range pols {
			for _, p := range ps {
				spec := m.Base
				if d != 0 {
					spec.Distance = d
				}
				if pol != "" {
					spec.Policy = pol
				}
				if p != 0 {
					spec.P = p
				}
				if err := add("", spec, m.Precision); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, ps := range m.Points {
		prec := m.Precision
		if ps.Precision != nil {
			prec = *ps.Precision
		}
		if err := add(ps.Label, ps.Config, prec); err != nil {
			return nil, err
		}
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("campaign: manifest expands to zero points")
	}
	return pts, nil
}

// Figure14Manifest is the canonical campaign: the paper's Figure 14 sweep —
// LER versus code distance for the four LRC scheduling policies — as one
// declarative manifest. Tests and examples submit it both as a campaign and
// point-by-point to pin the bit-exactness contract.
func Figure14Manifest(distances []int, p float64, base service.ConfigSpec, prec service.Precision) Manifest {
	base.P = p
	return Manifest{
		Name:      "figure14",
		Base:      base,
		Distances: distances,
		Policies:  []string{"eraser", "always", "eraser+m", "optimal"},
		Precision: prec,
	}
}
