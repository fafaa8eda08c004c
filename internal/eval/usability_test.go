package eval

import (
	"testing"

	"fadewich/internal/control"
	"fadewich/internal/kma"
	"fadewich/internal/md"
)

// TestAnalyticAlertAgreesWithTickController is the promised consistency
// check between the event-driven alert model used by Table IV and the
// tick-driven reference controller: for a scripted scenario, the analytic
// screensaver time must match the controller's screensaver log.
func TestAnalyticAlertAgreesWithTickController(t *testing.T) {
	const dt = 0.2
	p := control.DefaultParams()
	cases := []struct {
		name   string
		inputs []float64 // one bystander workstation's inputs
		t1, t2 float64   // variation window
		wantSS bool
	}{
		{
			// Idle since 99: alert at t1+t∆ ≈ 105.5, idle already > tID →
			// screensaver fires inside the window.
			name:   "long-idle bystander",
			inputs: []float64{10, 99},
			t1:     101, t2: 108,
			wantSS: true,
		},
		{
			// Typing right through the window: never idle ≥ 1 s at a
			// query, no screensaver.
			name:   "active bystander",
			inputs: rangeInputs(10, 120, 0.8),
			t1:     101, t2: 108,
			wantSS: false,
		},
		{
			// Goes idle at 104, window ends at 107: idle reaches tID=5
			// only at 109 > t2 → alert dismissed at window end, no
			// screensaver.
			name:   "idle too late",
			inputs: append(rangeInputs(10, 104, 0.8), 104),
			t1:     101, t2: 107,
			wantSS: false,
		},
		{
			// Goes idle at 103 with a long window: ss at 108 ≤ t2.
			name:   "idle reaches tID inside long window",
			inputs: append(rangeInputs(10, 103, 0.8), 103),
			t1:     101, t2: 110,
			wantSS: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Analytic model.
			tracker := kma.NewTracker([][]float64{c.inputs})
			tq := c.t1 + p.TDeltaSec
			ssAt, gotSS := alertScreensaverTime(tracker, 0, tq, c.t2, p.TIDSec)

			// Tick-driven reference: the controller over a 300 s day, each
			// input delivered at the first tick at or after it.
			tracker2 := kma.NewTracker([][]float64{c.inputs})
			ctl := control.NewController(p, dt, 1)
			start, end := int(c.t1/dt), int(c.t2/dt)
			var ss []control.Action
			last := -1.0
			for tick := 0; tick < int(300/dt); tick++ {
				now := float64(tick) * dt
				var out []control.Action
				if in, ok := tracker2.LastInput(0, now); ok && in > last {
					last = in
					out = ctl.Input(0, in, out)
				}
				win := -1
				if start <= tick && tick < end {
					win = tick - start
				}
				for _, a := range ctl.Step(now, win, func() int { return 0 }, out) {
					if a.Type == control.ActionScreensaverOn {
						ss = append(ss, a)
					}
				}
			}
			refSS := len(ss) > 0

			if gotSS != c.wantSS {
				t.Fatalf("analytic ss=%v (at %v), want %v", gotSS, ssAt, c.wantSS)
			}
			if refSS != c.wantSS {
				t.Fatalf("tick controller ss=%v, want %v", refSS, c.wantSS)
			}
			if gotSS && refSS {
				// Times agree within a tick plus scheduling slack.
				if diff := ssAt - ss[0].Time; diff > 2*dt || diff < -2*dt {
					t.Fatalf("analytic ss at %v, controller at %v", ssAt, ss[0].Time)
				}
			}
		})
	}
}

func rangeInputs(from, to, step float64) []float64 {
	var out []float64
	for x := from; x < to; x += step {
		out = append(out, x)
	}
	return out
}

func TestIdleAtLeast(t *testing.T) {
	tr := kma.NewTracker([][]float64{{50}})
	if !idleAtLeast(tr, 0, 60, 4.5) {
		t.Fatal("10s idle should satisfy 4.5s")
	}
	if idleAtLeast(tr, 0, 52, 4.5) {
		t.Fatal("2s idle should not satisfy 4.5s")
	}
	// Untouched workstation is idle since day start.
	tr2 := kma.NewTracker([][]float64{{}})
	if !idleAtLeast(tr2, 0, 10, 4.5) {
		t.Fatal("untouched workstation should count as idle")
	}
}

func TestWindowPredictionsCoverAllQualifyingWindows(t *testing.T) {
	h := testHarness(t)
	tDelta := h.Options().Feat.TDeltaSec
	preds, err := h.windowPredictions(9, tDelta)
	if err != nil {
		t.Fatal(err)
	}
	results, _ := h.RunMD(9)
	want := 0
	for _, r := range results {
		want += len(md.FilterWindows(r.Windows, r.DT, tDelta))
	}
	if len(preds) != want {
		t.Fatalf("predictions %d, qualifying windows %d", len(preds), want)
	}
	for _, p := range preds {
		if p.label < 0 || p.label > 3 {
			t.Fatalf("prediction label %d out of range", p.label)
		}
		if p.t2-p.t1 < tDelta-0.3 {
			t.Fatalf("window [%v,%v] below t∆", p.t1, p.t2)
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
