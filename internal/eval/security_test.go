package eval

import (
	"math"
	"sort"
	"testing"

	"fadewich/internal/md"
)

// treeDeparture is one departure read from the paper's Fig 5 decision
// tree, the oracle the controller replay is compared against.
type treeDeparture struct {
	DepartureOutcome
	// t1 is the start of the window matched to the departure; NaN for a
	// false negative.
	t1 float64
}

// fig5Tree reads every departure at sensor count n from the decision
// tree: a departure with no matched window is case C at T; one whose
// matched window RE labels correctly (the cross-validated prediction,
// seeded as DepartureOutcomes) is case A at t1 + t∆; any other is case B
// at t_ID + t_ss.
func fig5Tree(t *testing.T, h *Harness, n int, seed uint64) []treeDeparture {
	t.Helper()
	p := h.opt.Params
	tDelta := h.opt.Feat.TDeltaSec
	results, err := h.RunMD(n)
	if err != nil {
		t.Fatal(err)
	}
	matches, _ := h.Match(results, tDelta)
	samples, preds, err := h.CrossValPredictions(n, tDelta, seed)
	if err != nil {
		t.Fatal(err)
	}
	pred := make(map[[2]int]int, len(samples))
	for i, s := range samples {
		pred[[2]int{s.Day, s.StartTick}] = preds[i]
	}
	var out []treeDeparture
	for day, m := range matches {
		dt := h.ds.Days[day].DT
		for ei, ev := range h.events[day] {
			if ev.Label < 1 {
				continue
			}
			d := treeDeparture{DepartureOutcome{Event: ev, Case: CaseC, Elapsed: p.TimeoutSec}, math.NaN()}
			if wi := m.WindowOf[ei]; wi >= 0 {
				w := m.Windows[wi]
				d.t1 = float64(w.StartTick) * dt
				if pred[[2]int{day, w.StartTick}] == ev.Label {
					d.Case, d.Elapsed = CaseA, d.t1+p.TDeltaSec-ev.Time
				} else {
					d.Case, d.Elapsed = CaseB, p.TIDSec+p.TSSSec
				}
			}
			out = append(out, d)
		}
	}
	return out
}

// lastInputAt returns the last input in sorted times at or before t, or
// -Inf.
func lastInputAt(times []float64, t float64) float64 {
	i := sort.Search(len(times), func(i int) bool { return times[i] > t })
	if i == 0 {
		return math.Inf(-1)
	}
	return times[i-1]
}

// divergence names why the automaton's outcome for a departure differs
// from the tree's by more than one tick, and returns "" when no known
// reason holds. wins are the day's variation windows, merged across gap
// ticks.
func divergence(h *Harness, wins []md.Window, gap int, tree treeDeparture, got DepartureOutcome) string {
	p := h.opt.Params
	ev := got.Event
	dt := h.ds.Days[ev.Day].DT
	in := h.inputs[ev.Day][ev.Label-1]
	tDeltaTicks := int(p.TDeltaSec / dt)
	deauthTick := int((ev.Time+got.Elapsed)/dt + 0.5)
	switch {
	case got.Case == CaseC && got.Elapsed == p.TimeoutSec:
		if i := sort.Search(len(in), func(i int) bool { return in[i] > ev.Time }); i < len(in) && in[i] < ev.Time+tree.Elapsed {
			return "the user returned before any deauthentication"
		}
	case tree.Case == CaseA && got.Case == CaseB:
		// t∆ truncates to whole ticks, but Rule 1 still asks for t∆ idle.
		rule1At := tree.t1 + float64(tDeltaTicks)*dt
		if rule1At-lastInputAt(in, rule1At) < p.TDeltaSec {
			return "Rule 1 declined at its t∆ tick: idle below t∆"
		}
	case tree.Case == CaseC:
		// The tree's t∆ filter drops a window that stays open through the
		// merge gap to its t∆ tick; the automaton classifies it.
		for _, w := range wins {
			at := w.StartTick + tDeltaTicks
			if w.Duration(dt) < p.TDeltaSec && at < w.EndTick+gap && float64(at)*dt >= ev.Time && at <= deauthTick {
				return "a window shorter than t∆ reached its t∆ tick through the merge gap"
			}
		}
	}
	if got.Case == CaseB {
		// The matched window, if any, closed before the screensaver and
		// its alert was dismissed; a later window's first Rule 2 tick
		// found the workstation idle past t_ID + t_ss and expired the
		// alert at once.
		for _, w := range wins {
			if w.StartTick+tDeltaTicks == deauthTick && !(float64(w.StartTick)*dt <= tree.t1) {
				return "a later window's Rule 2 found the workstation idle past t_ID + t_ss"
			}
		}
	}
	return ""
}

// TestAutomatonAgainstDecisionTree lists every departure where the
// replay through control.Controller and the Fig 5 tree differ by more
// than one tick, with the reason. An unnamed difference fails.
func TestAutomatonAgainstDecisionTree(t *testing.T) {
	h := testHarness(t)
	for _, n := range []int{3, 9} {
		got, err := h.DepartureOutcomes(n, 0, figuresCVSeed)
		if err != nil {
			t.Fatal(err)
		}
		tree := fig5Tree(t, h, n, figuresCVSeed)
		results, err := h.RunMD(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tree) {
			t.Fatalf("n=%d: %d outcomes, tree has %d", n, len(got), len(tree))
		}
		for i, g := range got {
			tr := tree[i]
			dt := h.ds.Days[g.Event.Day].DT
			if g.Case == tr.Case && math.Abs(g.Elapsed-tr.Elapsed) <= dt {
				continue
			}
			r := results[g.Event.Day]
			why := divergence(h, r.Windows, r.GapTicks, tr, g)
			t.Logf("n=%d day %d departure at %.1f (ws%d): tree %v %.2f s, automaton %v %.2f s: %s",
				n, g.Event.Day, g.Event.Time, g.Event.Label-1, tr.Case, tr.Elapsed, g.Case, g.Elapsed, why)
			if why == "" {
				t.Errorf("n=%d: unnamed difference at departure %d", n, i)
			}
		}
	}
}
