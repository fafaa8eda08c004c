// Package serve is the control plane that turns the single-process
// stack into a long-running service: it hosts a live engine.Fleet
// behind a stream.Ingestor and drives fleet membership *declaratively*
// from a fleet-spec file, the operator pattern applied to our elastic
// multi-tenancy. The spec says which offices should exist and how each
// is configured; a reconcile loop diffs that desired state against
// live membership and applies AddOffice/RemoveOffice/config rollouts
// at batch boundaries, recording per-office observed generation and
// last-transition status. The HTTP surface (POST /v1/ticks,
// GET /v1/actions, GET /v1/offices, POST /v1/train, POST /v1/reload,
// GET /metrics) is the service face of the same fleet the batch tools
// drive synchronously — and the end-to-end tests hold it to the same
// standard: the action stream served over HTTP is byte-identical to a
// synchronous reference run of the same ticks.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"fadewich/internal/core"
	"fadewich/internal/md"
	"fadewich/internal/office"
)

// OfficeSpec describes one desired office in a fleet spec: its stable
// name, floor plan, sensor deployment, sampling period, movement-
// detector thresholds and training knobs. Zero fields inherit the
// spec's defaults block; zero again after that means "library default".
type OfficeSpec struct {
	// Name is the office's stable identity across spec revisions: the
	// reconciler matches desired to live offices by name. Required,
	// unique within a spec (ignored in the defaults block).
	Name string `json:"name"`
	// Layout names the floor plan: paper (default), small or wide.
	Layout string `json:"layout"`
	// Sensors is the number of sensors deployed (0 selects the layout's
	// full set). The office monitors sensors·(sensors−1) RSSI streams.
	Sensors int `json:"sensors"`
	// Seed is accepted so that specs which carry a dataset seed for the
	// simulator that feeds them still parse under strict decoding; the
	// serve daemon itself has no use for it — ticks arrive over HTTP,
	// already generated.
	Seed uint64 `json:"seed"`
	// DT is the RSSI sampling period in seconds (0 selects the paper's
	// 0.2 s).
	DT float64 `json:"dt"`
	// MDStdWindowSec, MDAlpha and MDTau override the movement
	// detector's rolling std-dev window d, anomaly tail percentage α
	// and profile-update rejection threshold τ.
	MDStdWindowSec float64 `json:"md_std_window_sec"`
	MDAlpha        float64 `json:"md_alpha"`
	MDTau          float64 `json:"md_tau"`
	// MinTrainingSamples overrides the smallest labelled sample count
	// FinishTraining will accept (0 selects the core default).
	MinTrainingSamples int `json:"min_training_samples"`
	// GID is the office's cluster-wide global ID, stamped into worker
	// sub-specs by the shard coordinator (see internal/cluster): the
	// office ID its actions carry on the forwarded wire stream, so the
	// routed cross-worker stream uses one consistent ID space. Absent
	// in single-process specs; when present, must be unique and
	// non-negative. Not an inheritable default (ignored in the
	// defaults block).
	GID *int `json:"gid,omitempty"`
}

// Spec is the declarative fleet description the serve daemon reconciles
// against: the desired offices, in order, with a shared defaults block.
// Office order matters operationally — rollouts apply config updates
// and additions in spec order, so office IDs assign deterministically —
// but identity is by name, so reordering alone changes nothing.
type Spec struct {
	// Defaults seeds every office's zero fields (its Name and Seed are
	// ignored).
	Defaults OfficeSpec `json:"defaults"`
	// Offices is the desired membership. At least one.
	Offices []OfficeSpec `json:"offices"`
}

// ResolvedOffice is one desired office after defaulting and
// validation: its stable name and the fully-resolved System
// configuration the fleet will run it under. Config is a comparable
// struct, so "did this office's configuration change between spec
// revisions" is plain equality.
type ResolvedOffice struct {
	Name   string
	Config core.Config
	// GID is the cluster-wide global ID from the spec's gid field, or
	// -1 when the spec carries none (the single-process case).
	GID int
}

// ParseSpec decodes a fleet spec from JSON. Unknown fields and anything
// but whitespace after the spec object are rejected — a typo in an
// operator-maintained file must fail loudly, not silently configure
// nothing.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("serve: fleet spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("serve: fleet spec: trailing data after the spec object")
	}
	return &s, nil
}

// layoutByName maps the spec layout spelling to a floor plan.
func layoutByName(name string) (*office.Layout, error) {
	switch name {
	case "", "paper":
		return office.Paper(), nil
	case "small":
		return office.Small(), nil
	case "wide":
		return office.Wide(), nil
	default:
		return nil, fmt.Errorf("unknown layout %q (want paper, small or wide)", name)
	}
}

// orDefault returns v unless it is the zero value, else d.
func orDefault[T comparable](v, d T) T {
	var zero T
	if v == zero {
		return d
	}
	return v
}

// Resolve validates the whole spec and resolves every office into its
// System configuration. It is all-or-nothing: any invalid office fails
// the entire spec, so a reconciler that resolves before touching live
// membership gets atomic validate-then-apply for free. Each resolved
// configuration is additionally dry-run through core.NewSystem, so a
// spec that Resolve accepts cannot fail later at AddOffice time.
// An office-less spec resolves to an empty slice: whether that is
// acceptable is the daemon's policy, which resolveSpec applies.
func (s *Spec) Resolve() ([]ResolvedOffice, error) {
	seen := make(map[string]int, len(s.Offices))
	seenGID := make(map[int]int, len(s.Offices))
	out := make([]ResolvedOffice, 0, len(s.Offices))
	for i, o := range s.Offices {
		fail := func(err error) ([]ResolvedOffice, error) {
			return nil, fmt.Errorf("serve: fleet spec: office %d (%q): %w", i, o.Name, err)
		}
		if o.Name == "" {
			return fail(fmt.Errorf("missing name"))
		}
		if prev, dup := seen[o.Name]; dup {
			return fail(fmt.Errorf("duplicate name (first used by office %d)", prev))
		}
		seen[o.Name] = i

		gid := -1
		if o.GID != nil {
			gid = *o.GID
			if gid < 0 {
				return fail(fmt.Errorf("negative gid %d", gid))
			}
			if prev, dup := seenGID[gid]; dup {
				return fail(fmt.Errorf("duplicate gid %d (first used by office %d)", gid, prev))
			}
			seenGID[gid] = i
		}

		layout, err := layoutByName(orDefault(o.Layout, s.Defaults.Layout))
		if err != nil {
			return fail(err)
		}
		sensors := orDefault(o.Sensors, s.Defaults.Sensors)
		if sensors == 0 {
			sensors = layout.NumSensors()
		}
		if _, err := layout.SensorSubset(sensors); err != nil {
			return fail(err)
		}
		cfg := core.Config{
			DT:           orDefault(o.DT, s.Defaults.DT),
			Streams:      sensors * (sensors - 1),
			Workstations: layout.NumWorkstations(),
			MD: md.Config{
				StdWindowSec: orDefault(o.MDStdWindowSec, s.Defaults.MDStdWindowSec),
				Alpha:        orDefault(o.MDAlpha, s.Defaults.MDAlpha),
				Tau:          orDefault(o.MDTau, s.Defaults.MDTau),
			},
			MinTrainingSamples: orDefault(o.MinTrainingSamples, s.Defaults.MinTrainingSamples),
		}
		if _, err := core.NewSystem(cfg); err != nil {
			return fail(err)
		}
		out = append(out, ResolvedOffice{Name: o.Name, Config: cfg, GID: gid})
	}
	return out, nil
}

// resolveSpec is the one validation every spec passes, at startup and
// on every reload: parse, resolve, then the daemon's membership policy.
// A tagged worker (Config.ForwardSource != 0) may run an empty shard,
// but every office it runs needs a gid: the worker runs the office
// under it, and an office without one has no ID in the cluster's ID
// space. Anywhere else an empty spec is
// rejected: a single-process operator emptying the fleet is almost
// always a spec-file accident.
func resolveSpec(raw []byte, tagged bool) ([]ResolvedOffice, error) {
	spec, err := ParseSpec(raw)
	if err != nil {
		return nil, err
	}
	resolved, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	if len(resolved) == 0 && !tagged {
		return nil, errors.New("serve: fleet spec: no offices (the fleet needs at least one)")
	}
	for _, ro := range resolved {
		if tagged && ro.GID < 0 {
			return nil, fmt.Errorf("serve: tagged forwarding needs a gid for every office, but %q has none", ro.Name)
		}
	}
	return resolved, nil
}
