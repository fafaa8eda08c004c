package kma

import (
	"math"
	"sort"
	"testing"

	"fadewich/internal/agent"
	"fadewich/internal/rng"
)

func spanHours(h float64) [][]agent.Interval {
	return [][]agent.Interval{{{Start: 0, End: h * 3600}}}
}

func TestGenerateInputsActiveFraction(t *testing.T) {
	// Over a long span, ~78% of 5-second intervals must contain input.
	inputs := GenerateInputs(spanHours(8), nil, InputModel{}, rng.New(1))
	times := inputs[0]
	intervals := int(8 * 3600 / 5)
	active := make([]bool, intervals)
	for _, x := range times {
		idx := int(x / 5)
		if idx >= 0 && idx < intervals {
			active[idx] = true
		}
	}
	count := 0
	for _, a := range active {
		if a {
			count++
		}
	}
	frac := float64(count) / float64(intervals)
	if math.Abs(frac-0.78) > 0.02 {
		t.Fatalf("active fraction %v, want ≈0.78", frac)
	}
}

func TestGenerateInputsSortedWithinSpans(t *testing.T) {
	spans := [][]agent.Interval{{
		{Start: 100, End: 400},
		{Start: 600, End: 900},
	}}
	inputs := GenerateInputs(spans, nil, InputModel{}, rng.New(2))
	times := inputs[0]
	if !sort.Float64sAreSorted(times) {
		t.Fatal("inputs not sorted")
	}
	for _, x := range times {
		if (x < 100 || x > 400) && (x < 600 || x > 900) {
			t.Fatalf("input %v outside spans", x)
		}
	}
}

func TestDepartureAddsWorstCaseInput(t *testing.T) {
	events := []agent.Event{
		{Type: agent.EventDeparture, Time: 250.5, Workstation: 0},
		{Type: agent.EventEntry, Time: 300, Workstation: 0}, // must not add input
	}
	inputs := GenerateInputs([][]agent.Interval{{}}, events, InputModel{}, rng.New(3))
	found := false
	for _, x := range inputs[0] {
		if x == 250.5 {
			found = true
		}
		if x == 300 {
			t.Fatal("entry event added an input")
		}
	}
	if !found {
		t.Fatal("departure did not add the worst-case input at its exact time")
	}
}

func TestTrackerLastInputMonotoneCursor(t *testing.T) {
	tr := NewTracker([][]float64{{1, 2, 3, 4, 5}})
	for now := 0.5; now < 6; now += 0.5 {
		last, ok := tr.LastInput(0, now)
		wantOK := now >= 1
		if ok != wantOK {
			t.Fatalf("at %v: ok=%v", now, ok)
		}
		if ok && last != math.Floor(now) && last != now {
			t.Fatalf("at %v: last=%v", now, last)
		}
	}
}

func TestTrackerLastInputAtRandomAccess(t *testing.T) {
	tr := NewTracker([][]float64{{10, 20, 30}})
	// Probe out of order — binary search must not care.
	if v, ok := tr.LastInputAt(0, 25); !ok || v != 20 {
		t.Fatalf("LastInputAt(25) = %v,%v", v, ok)
	}
	if v, ok := tr.LastInputAt(0, 15); !ok || v != 10 {
		t.Fatalf("LastInputAt(15) = %v,%v", v, ok)
	}
	if _, ok := tr.LastInputAt(0, 5); ok {
		t.Fatal("LastInputAt before first input should report none")
	}
	if v, ok := tr.LastInputAt(0, 30); !ok || v != 30 {
		t.Fatalf("LastInputAt(30) = %v,%v (inclusive)", v, ok)
	}
}

func TestTrackerInputInRange(t *testing.T) {
	tr := NewTracker([][]float64{{10, 20, 30}})
	if !tr.InputInRange(0, 15, 25) {
		t.Fatal("(15,25] should contain 20")
	}
	if tr.InputInRange(0, 20, 29) {
		t.Fatal("(20,29] should be empty (exclusive left)")
	}
	if !tr.InputInRange(0, 29, 30) {
		t.Fatal("(29,30] should contain 30")
	}
	if tr.InputInRange(0, 31, 100) {
		t.Fatal("(31,100] should be empty")
	}
}

func TestTrackerNextInputAfter(t *testing.T) {
	tr := NewTracker([][]float64{{10, 20}})
	if v, ok := tr.NextInputAfter(0, 10); !ok || v != 20 {
		t.Fatalf("NextInputAfter(10) = %v,%v", v, ok)
	}
	if v, ok := tr.NextInputAfter(0, 5); !ok || v != 10 {
		t.Fatalf("NextInputAfter(5) = %v,%v", v, ok)
	}
	if _, ok := tr.NextInputAfter(0, 20); ok {
		t.Fatal("NextInputAfter(last) should report none")
	}
}

func TestTrackerCopiesInput(t *testing.T) {
	raw := [][]float64{{30, 10, 20}} // unsorted on purpose
	tr := NewTracker(raw)
	raw[0][0] = 999
	if v, ok := tr.LastInputAt(0, 35); !ok || v != 30 {
		t.Fatalf("tracker affected by caller mutation: %v,%v", v, ok)
	}
}

func TestInputModelDefaults(t *testing.T) {
	m := InputModel{}.withDefaults()
	if m.IntervalSec != 5 || m.ActiveProb != 0.78 || m.MinEvents != 1 || m.MaxEvents != 3 {
		t.Fatalf("defaults %+v", m)
	}
	inverted := InputModel{MinEvents: 5, MaxEvents: 2}.withDefaults()
	if inverted.MaxEvents < inverted.MinEvents {
		t.Fatal("inverted event bounds not repaired")
	}
}
