package eval

import (
	"math"
	"testing"

	"fadewich/internal/agent"
	"fadewich/internal/control"
	"fadewich/internal/md"
	"fadewich/internal/sim"
)

// The scripted scenarios below give the replay one workstation whose
// user is seated all day, 0.2 s ticks and the default merge gap of
// 4 ticks.
const (
	scriptDT  = 0.2
	scriptGap = 4
)

// scriptTrace is a 300 s day, shorter than the time-out, with one user
// seated throughout.
func scriptTrace() *sim.Trace {
	return &sim.Trace{
		DT:     scriptDT,
		Ticks:  int(300 / scriptDT),
		Seated: [][]agent.Interval{{{Start: 0, End: 300}}},
	}
}

// scriptWindow builds an md.Window from times in seconds.
func scriptWindow(t1, t2 float64) md.Window {
	return md.Window{StartTick: int(t1/scriptDT + 0.5), EndTick: int(t2/scriptDT + 0.5)}
}

func labelAll(label int) func(md.Window) int {
	return func(md.Window) int { return label }
}

func countType(acts []control.Action, typ control.ActionType) int {
	n := 0
	for _, a := range acts {
		if a.Type == typ {
			n++
		}
	}
	return n
}

// TestReplaySeatedInstantAlertExpiryIsOneDeauth: a seated user idle for
// 50 s when Rule 2 fires has already passed t_ID + t_ss, so the
// screensaver and the deauthentication land on the same tick. Table IV
// counts that once, as a deauthentication (13 s).
func TestReplaySeatedInstantAlertExpiryIsOneDeauth(t *testing.T) {
	p := control.DefaultParams()
	acts := replay(p, scriptTrace(), scriptGap, []md.Window{scriptWindow(100, 110)}, labelAll(0), [][]float64{{10, 50}})
	var ss, deauth []control.Action
	for _, a := range acts {
		switch a.Type {
		case control.ActionScreensaverOn:
			ss = append(ss, a)
		case control.ActionDeauthenticate:
			deauth = append(deauth, a)
		}
	}
	if len(ss) != 1 || len(deauth) != 1 {
		t.Fatalf("screensavers %v, deauths %v; want one of each", ss, deauth)
	}
	if deauth[0].Cause != control.CauseAlert || deauth[0].Time != ss[0].Time {
		t.Fatalf("deauth %+v, screensaver %+v: want an alert expiry on the screensaver's tick", deauth[0], ss[0])
	}
	// Rule 2 fires on the window's t∆ tick.
	if want := float64(scriptWindow(100, 110).StartTick+int(p.TDeltaSec/scriptDT)) * scriptDT; ss[0].Time != want {
		t.Fatalf("screensaver at %v, want %v", ss[0].Time, want)
	}
	s, d := seatedErrors(scriptTrace().Seated, acts)
	if s != 0 || d != 1 {
		t.Fatalf("seated errors: %d screensavers, %d deauths; want 0 and 1", s, d)
	}
	if cost := 3*s + 13*d; cost != 13 {
		t.Fatalf("cost %d s, want 13", cost)
	}
}

// TestReplaySeatedUserCancelsScreensaver: a seated user who stopped
// typing just before a long window gets the screensaver at t_ID idle,
// reacts ReactionSec later, and is not deauthenticated: 3 s.
func TestReplaySeatedUserCancelsScreensaver(t *testing.T) {
	p := control.DefaultParams()
	acts := replay(p, scriptTrace(), scriptGap, []md.Window{scriptWindow(101, 108)}, labelAll(0), [][]float64{{10, 100}})
	if n := countType(acts, control.ActionDeauthenticate); n != 0 {
		t.Fatalf("%d deauthentications, want none: %+v", n, acts)
	}
	var ssAt, exitAt float64
	for _, a := range acts {
		if a.Type == control.ActionScreensaverOn {
			ssAt = a.Time
		}
		if a.Type == control.ActionAlertExit && ssAt > 0 && exitAt == 0 {
			exitAt = a.Time
		}
	}
	if ssAt == 0 || math.Abs(exitAt-ssAt-ReactionSec) > 1e-9 {
		t.Fatalf("screensaver at %v, cancelled at %v; want a reaction %v s later", ssAt, exitAt, ReactionSec)
	}
	s, d := seatedErrors(scriptTrace().Seated, acts)
	if s != 1 || d != 0 {
		t.Fatalf("seated errors: %d screensavers, %d deauths; want 1 and 0", s, d)
	}
}

// TestReplayReturnBeforeDeauthIsCaseC: the first departure (100) has no
// window and its user is back at 150, before any deauthentication. It is
// case C at the time-out and must not take the Rule 1 deauthentication of
// the second departure (200).
func TestReplayReturnBeforeDeauthIsCaseC(t *testing.T) {
	p := control.DefaultParams()
	inputs := [][]float64{{10, 60, 100, 150, 180, 200}}
	acts := replay(p, scriptTrace(), scriptGap, []md.Window{scriptWindow(201, 210)}, labelAll(1), inputs)
	evs := []TrueEvent{{Time: 100, Label: 1}, {Time: 200, Label: 1}}
	got := departureOutcomes(nil, p.TimeoutSec, evs, inputs, acts)
	if len(got) != 2 {
		t.Fatalf("outcomes %+v", got)
	}
	if got[0].Case != CaseC || got[0].Elapsed != p.TimeoutSec {
		t.Fatalf("returned user: %v after %v s, want C after %v s", got[0].Case, got[0].Elapsed, p.TimeoutSec)
	}
	if got[1].Case != CaseA || got[1].Elapsed < 5 || got[1].Elapsed > 6 {
		t.Fatalf("second departure: %v after %v s, want A after about 5.4 s", got[1].Case, got[1].Elapsed)
	}
}

// TestReplayClassifiesSubTDeltaWindowThroughGap: a 3.8 s window (19
// ticks) is shorter than t∆ = 4.5 s, so md.FilterWindows drops it, but it
// stays open for the 4-tick merge gap and reaches t∆'s 22 ticks. Rule 1
// asks for its label, and deauthenticates the idle workstation it names.
func TestReplayClassifiesSubTDeltaWindowThroughGap(t *testing.T) {
	p := control.DefaultParams()
	w := scriptWindow(101, 104.8)
	if kept := md.FilterWindows([]md.Window{w}, scriptDT, p.TDeltaSec); len(kept) != 0 {
		t.Fatalf("window %+v passes the t∆ filter", w)
	}
	asked := 0
	label := func(md.Window) int { asked++; return 1 }
	acts := replay(p, scriptTrace(), scriptGap, []md.Window{w}, label, [][]float64{{10, 95}})
	if asked != 1 {
		t.Fatalf("classified %d times, want once", asked)
	}
	deauth := acts[len(acts)-1]
	if deauth.Type != control.ActionDeauthenticate || deauth.Cause != control.CauseRule1 {
		t.Fatalf("last action %+v, want a Rule 1 deauthentication", deauth)
	}
	// One tick shorter, the window closes before t∆.
	asked = 0
	replay(p, scriptTrace(), scriptGap, []md.Window{{StartTick: w.StartTick, EndTick: w.EndTick - 1}}, label, [][]float64{{10, 95}})
	if asked != 0 {
		t.Fatalf("a window that closes before t∆ was classified %d times", asked)
	}
}

// TestWindowPredictionsCoverAllQualifyingWindows: on the fixture day,
// the replay classifies every window of duration ≥ t∆, each once.
func TestWindowPredictionsCoverAllQualifyingWindows(t *testing.T) {
	h := testHarness(t)
	p := h.Options().Params
	results, err := h.RunMD(9)
	if err != nil {
		t.Fatal(err)
	}
	for day, r := range results {
		trace := h.Dataset().Days[day]
		asked := map[md.Window]int{}
		label := func(w md.Window) int { asked[w]++; return 0 }
		replay(p, trace, r.GapTicks, r.Windows, label, h.Inputs()[day])
		for _, w := range md.FilterWindows(r.Windows, r.DT, p.TDeltaSec) {
			if asked[w] != 1 {
				t.Fatalf("day %d: window %+v classified %d times", day, w, asked[w])
			}
		}
		for w, n := range asked {
			if n != 1 {
				t.Fatalf("day %d: window %+v classified %d times", day, w, n)
			}
		}
	}
}

func TestTable4DeterministicInSeed(t *testing.T) {
	h := testHarness(t)
	a, err := h.Table4(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Table4(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Table4 not deterministic: %+v vs %+v", a[i], b[i])
		}
	}
}
