package control

import (
	"testing"

	"fadewich/internal/kma"
	"fadewich/internal/md"
)

const (
	dt     = 0.2
	daySec = 600.0
)

// window builds an md.Window from times in seconds.
func window(t1, t2 float64) md.Window {
	return md.Window{StartTick: int(t1 / dt), EndTick: int(t2 / dt)}
}

// constPredict returns the same label for every window.
func constPredict(label int) Prediction {
	return func(md.Window) int { return label }
}

func TestCaseACorrectClassificationDeauthsAtT1PlusTDelta(t *testing.T) {
	// User of ws0 logs in at 10, last input (departure) at 100; window
	// [101, 107]; RE says ws0.
	inputs := [][]float64{{10, 50, 100}, {10, 95, 105, 110, 115, 120, 125}}
	tracker := kma.NewTracker(inputs)
	log := Run(DefaultParams(), dt, daySec, 2, []md.Window{window(101, 107)}, constPredict(1), tracker)

	d, ok := log.FirstDeauthAfter(0, 100)
	if !ok {
		t.Fatal("ws0 was not deauthenticated")
	}
	if d.Cause != CauseRule1 {
		t.Fatalf("cause %v, want rule1", d.Cause)
	}
	// Rule 1 fires when the window's duration reaches t∆: 101 + 4.5 ≈
	// 105.5 (tick granularity).
	if d.Time < 105.4 || d.Time > 106.2 {
		t.Fatalf("deauth at %v, want ≈105.6", d.Time)
	}
}

func TestRule1SkipsActiveWorkstation(t *testing.T) {
	// RE misclassifies the window as ws1, whose user typed at 105 —
	// inside the t∆ idle lookback — so Rule 1 must not fire on ws1.
	inputs := [][]float64{{10, 100}, {10, 103, 106}}
	tracker := kma.NewTracker(inputs)
	log := Run(DefaultParams(), dt, daySec, 2, []md.Window{window(101, 107)}, constPredict(2), tracker)
	for _, d := range log.Deauths {
		if d.Workstation == 1 && d.Cause == CauseRule1 {
			t.Fatal("Rule 1 deauthenticated a busy workstation")
		}
	}
}

func TestCaseBMisclassifiedDeauthsViaAlertAtTIDPlusTSS(t *testing.T) {
	// The real victim (ws0, last input 100) is misclassified as ws1
	// (busy). The alert path must deauthenticate ws0 at 100 + tID + tss =
	// 108.
	inputs := [][]float64{{10, 100}, typing(10, 300, 2)}
	tracker := kma.NewTracker(inputs)
	log := Run(DefaultParams(), dt, daySec, 2, []md.Window{window(101, 107)}, constPredict(2), tracker)

	d, ok := log.FirstDeauthAfter(0, 100)
	if !ok {
		t.Fatal("victim workstation never deauthenticated")
	}
	if d.Cause != CauseAlert {
		t.Fatalf("cause %v, want alert-expiry", d.Cause)
	}
	if d.Time < 107.8 || d.Time > 108.6 {
		t.Fatalf("case B deauth at %v, want ≈108 (t+tID+tss)", d.Time)
	}
}

// typing generates regular inputs from start to end.
func typing(start, end, step float64) []float64 {
	var out []float64
	for x := start; x < end; x += step {
		out = append(out, x)
	}
	return out
}

func TestCaseCTimeoutBackstop(t *testing.T) {
	// No windows at all (MD missed the departure): the time-out must
	// fire at last-input + T.
	p := DefaultParams()
	p.TimeoutSec = 120
	inputs := [][]float64{{10, 100}}
	tracker := kma.NewTracker(inputs)
	log := Run(p, dt, 600, 1, nil, nil, tracker)
	d, ok := log.FirstDeauthAfter(0, 100)
	if !ok {
		t.Fatal("timeout never fired")
	}
	if d.Cause != CauseTimeout {
		t.Fatalf("cause %v", d.Cause)
	}
	if d.Time < 219.9 || d.Time > 220.5 {
		t.Fatalf("timeout at %v, want ≈220", d.Time)
	}
}

func TestScreensaverForIdleBystander(t *testing.T) {
	// ws1's user idles through the window; the alert path should turn on
	// the screensaver but input at 106.5 (idle 7.5 s < tID+tss = 8 s)
	// cancels the alert before the deauthentication grace expires.
	inputs := [][]float64{{10, 100}, {10, 99, 106.5, 110}}
	tracker := kma.NewTracker(inputs)
	log := Run(DefaultParams(), dt, daySec, 2, []md.Window{window(101, 107)}, constPredict(0), tracker)
	foundSS := false
	for _, ss := range log.Screensavers {
		if ss.Workstation == 1 {
			foundSS = true
			// Screensaver at idle = tID from last input (99): 104, but
			// the alert only engages at t1+t∆ ≈ 105.6; screensaver fires
			// there.
			if ss.Time < 104 || ss.Time > 106.5 {
				t.Fatalf("screensaver at %v", ss.Time)
			}
		}
	}
	if !foundSS {
		t.Fatal("no screensaver for idle bystander")
	}
	for _, d := range log.Deauths {
		// The late idle time-out (input log ends at 110) is expected;
		// only an alert-path deauth near the window would be a bug.
		if d.Workstation == 1 && d.Time < 150 {
			t.Fatalf("bystander deauthenticated at %v despite cancelling input", d.Time)
		}
	}
}

func TestShortWindowTriggersNothing(t *testing.T) {
	// A 3-second window is below t∆: no Rule 1, no alerts.
	inputs := [][]float64{{10, 100}}
	tracker := kma.NewTracker(inputs)
	called := false
	pred := func(md.Window) int { called = true; return 1 }
	log := Run(DefaultParams(), dt, daySec, 1, []md.Window{window(101, 104)}, pred, tracker)
	if called {
		t.Fatal("RE queried for a sub-t∆ window")
	}
	if log.Rule1Fired != 0 {
		t.Fatal("rule 1 fired for a short window")
	}
	for _, d := range log.Deauths {
		if d.Time < 150 {
			t.Fatalf("early deauth at %v", d.Time)
		}
	}
}

func TestEntryClassificationDeauthsNobody(t *testing.T) {
	// Users type until close to the day end so the 300 s idle time-out
	// cannot fire inside the replay.
	inputs := [][]float64{typing(10, 590, 2), typing(12, 590, 2)}
	tracker := kma.NewTracker(inputs)
	log := Run(DefaultParams(), dt, daySec, 2, []md.Window{window(101, 107)}, constPredict(0), tracker)
	if len(log.Deauths) != 0 {
		t.Fatalf("w0 classification caused %d deauths", len(log.Deauths))
	}
	if log.Rule1Fired != 1 {
		t.Fatalf("rule1 fired %d times, want 1 (query happens, action does not)", log.Rule1Fired)
	}
}

func TestLoginCountsAndReauth(t *testing.T) {
	// User logs in, gets deauthenticated, types again → second login.
	inputs := [][]float64{{10, 100, 150}}
	tracker := kma.NewTracker(inputs)
	log := Run(DefaultParams(), dt, daySec, 1, []md.Window{window(101, 107)}, constPredict(1), tracker)
	if log.Logins != 2 {
		t.Fatalf("logins %d, want 2", log.Logins)
	}
}

func TestUnauthenticatedWorkstationNeverDeauthed(t *testing.T) {
	// Workstation 1 never receives input (no session): no deauth events
	// for it, even though it is permanently idle.
	inputs := [][]float64{typing(10, 500, 2), {}}
	tracker := kma.NewTracker(inputs)
	log := Run(DefaultParams(), dt, daySec, 2, []md.Window{window(101, 107)}, constPredict(2), tracker)
	for _, d := range log.Deauths {
		if d.Workstation == 1 {
			t.Fatalf("deauthenticated a workstation with no session at %v", d.Time)
		}
	}
}

func TestConsecutiveWindowsBothProcessed(t *testing.T) {
	inputs := [][]float64{{10, 100}, {10, 200}}
	tracker := kma.NewTracker(inputs)
	wins := []md.Window{window(101, 107), window(201, 207)}
	preds := []int{1, 2}
	i := 0
	pred := func(md.Window) int { p := preds[i]; i++; return p }
	log := Run(DefaultParams(), dt, daySec, 2, wins, pred, tracker)
	if log.Rule1Fired != 2 {
		t.Fatalf("rule1 fired %d times", log.Rule1Fired)
	}
	if _, ok := log.FirstDeauthAfter(0, 100); !ok {
		t.Fatal("first departure missed")
	}
	if _, ok := log.FirstDeauthAfter(1, 200); !ok {
		t.Fatal("second departure missed")
	}
}

func TestCauseString(t *testing.T) {
	if CauseRule1.String() != "rule1" || CauseAlert.String() != "alert-expiry" || CauseTimeout.String() != "timeout" {
		t.Fatal("cause strings wrong")
	}
	if Cause(42).String() == "" {
		t.Fatal("unknown cause should render")
	}
}

func TestParamsWithDefaults(t *testing.T) {
	p := Params{}.WithDefaults()
	if p.TDeltaSec != 4.5 || p.TIDSec != 5 || p.TSSSec != 3 || p.TimeoutSec != 300 || p.Rule2IdleSec != 1 {
		t.Fatalf("defaults %+v", p)
	}
	custom := Params{TDeltaSec: 2}.WithDefaults()
	if custom.TDeltaSec != 2 || custom.TIDSec != 5 {
		t.Fatal("partial defaults wrong")
	}
}
