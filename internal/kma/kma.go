// Package kma implements the Keyboard/Mouse Activity module of Section
// IV-B: per-workstation idle-time tracking and the S_t^(s) idle-set query
// the controller's rules consume. It also provides the input simulation
// the paper uses for its usability analysis (Section VII-D): following
// Mikkelsen et al., time is discretised into 5-second intervals and a
// seated user produces input during 78% of them.
package kma

import (
	"math"
	"slices"
	"sort"

	"fadewich/internal/agent"
	"fadewich/internal/rng"
)

// InputModel parameterises the simulated keyboard/mouse activity.
type InputModel struct {
	// IntervalSec is the discretisation interval (5 s in the paper).
	IntervalSec float64
	// ActiveProb is the probability a seated user produces input during
	// an interval (0.78 in Mikkelsen et al.).
	ActiveProb float64
	// MinEvents and MaxEvents bound the number of input events within an
	// active interval.
	MinEvents, MaxEvents int
}

// DefaultInputModel returns the paper's parameters.
func DefaultInputModel() InputModel {
	return InputModel{IntervalSec: 5, ActiveProb: 0.78, MinEvents: 1, MaxEvents: 3}
}

// withDefaults fills zero fields.
func (m InputModel) withDefaults() InputModel {
	d := DefaultInputModel()
	if m.IntervalSec == 0 {
		m.IntervalSec = d.IntervalSec
	}
	if m.ActiveProb == 0 {
		m.ActiveProb = d.ActiveProb
	}
	if m.MinEvents == 0 {
		m.MinEvents = d.MinEvents
	}
	if m.MaxEvents == 0 {
		m.MaxEvents = d.MaxEvents
	}
	if m.MaxEvents < m.MinEvents {
		m.MaxEvents = m.MinEvents
	}
	return m
}

// GenerateInputs simulates input event times for every workstation over
// one day. spans gives each user's input-capable intervals; events
// supplies the departure events, each of which contributes one input
// exactly at the departure decision time (the paper's worst-case
// assumption that the last input coincides with departure). The returned
// per-workstation slices are sorted ascending.
func GenerateInputs(spans [][]agent.Interval, events []agent.Event, model InputModel, src *rng.Source) [][]float64 {
	model = model.withDefaults()
	out := make([][]float64, len(spans))
	for u, ivs := range spans {
		var times []float64
		for _, iv := range ivs {
			// Interval grid aligned to absolute day time.
			first := math.Floor(iv.Start/model.IntervalSec) * model.IntervalSec
			for slot := first; slot < iv.End; slot += model.IntervalSec {
				if !src.Bool(model.ActiveProb) {
					continue
				}
				n := model.MinEvents
				if model.MaxEvents > model.MinEvents {
					n += src.Intn(model.MaxEvents - model.MinEvents + 1)
				}
				for i := 0; i < n; i++ {
					t := slot + src.Float64()*model.IntervalSec
					if t >= iv.Start && t <= iv.End {
						times = append(times, t)
					}
				}
			}
		}
		out[u] = times
	}
	for _, e := range events {
		if e.Type == agent.EventDeparture && e.Workstation >= 0 && e.Workstation < len(out) {
			out[e.Workstation] = append(out[e.Workstation], e.Time)
		}
	}
	for u := range out {
		sort.Float64s(out[u])
	}
	return out
}

// Tracker answers idle-time queries against fixed per-workstation input
// logs. Queries must have non-decreasing timestamps; the tracker advances
// an internal cursor per workstation, making a full-day replay O(total
// inputs + queries).
type Tracker struct {
	inputs [][]float64
	cursor []int
}

// NewTracker builds a tracker over per-workstation input times. It
// reads a sorted slice in place, so the caller must not change it while
// the tracker is in use; an unsorted one is copied and sorted.
func NewTracker(inputs [][]float64) *Tracker {
	cp := make([][]float64, len(inputs))
	for i, xs := range inputs {
		if !sort.Float64sAreSorted(xs) {
			xs = slices.Clone(xs)
			sort.Float64s(xs)
		}
		cp[i] = xs
	}
	return &Tracker{inputs: cp, cursor: make([]int, len(cp))}
}

// NumWorkstations returns the number of tracked workstations.
func (t *Tracker) NumWorkstations() int { return len(t.inputs) }

// seek advances workstation w's cursor to the last input ≤ now.
func (t *Tracker) seek(w int, now float64) {
	xs := t.inputs[w]
	c := t.cursor[w]
	for c < len(xs) && xs[c] <= now {
		c++
	}
	t.cursor[w] = c
}

// LastInput returns the time of the last input at workstation w at or
// before now, and false if there has been none yet.
func (t *Tracker) LastInput(w int, now float64) (float64, bool) {
	t.seek(w, now)
	c := t.cursor[w]
	if c == 0 {
		return 0, false
	}
	return t.inputs[w][c-1], true
}

// InputInRange reports whether workstation w received any input within
// (from, to]. It uses binary search and does not disturb the replay
// cursors, so labelling code can probe arbitrary ranges.
func (t *Tracker) InputInRange(w int, from, to float64) bool {
	xs := t.inputs[w]
	i := sort.SearchFloat64s(xs, from)
	// Skip events exactly at 'from' (range is exclusive at the left).
	for i < len(xs) && xs[i] <= from {
		i++
	}
	return i < len(xs) && xs[i] <= to
}

// NextInputAfter returns the first input time strictly after t at
// workstation w, and false if none exists.
func (t *Tracker) NextInputAfter(w int, after float64) (float64, bool) {
	xs := t.inputs[w]
	i := sort.SearchFloat64s(xs, after)
	for i < len(xs) && xs[i] <= after {
		i++
	}
	if i >= len(xs) {
		return 0, false
	}
	return xs[i], true
}
