package eval

// This file replays simulated days through the decision automaton the
// daemon runs, control.Controller. Fig 9, Fig 10, Fig 13 and Table IV
// read every departure outcome and usability count from the actions it
// emits, so the figures describe the deployed rules rather than a model
// of them.

import (
	"sync"

	"fadewich/internal/agent"
	"fadewich/internal/control"
	"fadewich/internal/md"
	"fadewich/internal/re"
	"fadewich/internal/sim"
)

// ReactionSec is how quickly a seated user dismisses an unexpected
// screensaver.
const ReactionSec = 1.5

// The seeds of the figures' and Table IV's cross-validation splits, and
// the salt of the SVM trained on every TP sample, which labels the
// windows no fold predicts.
const (
	figuresCVSeed = 12345
	table4CVSeed  = 9377
	fullModelSalt = 5501
)

// replayer prepares the n-sensor replay and returns a function that
// replays one day under one input draw ([workstation][times]). Rule 1
// classifies a TP window (matched at t∆ = tDelta) with its 5-fold
// cross-validated prediction, seeded by cvSeed, and any other window
// with one model trained on every TP sample. The function is safe for
// concurrent replays and computes each full-model prediction once.
func (h *Harness) replayer(n int, tDelta float64, cvSeed uint64) (func(day int, inputs [][]float64) []control.Action, error) {
	results, err := h.RunMD(n)
	if err != nil {
		return nil, err
	}
	samples, preds, err := h.CrossValPredictions(n, tDelta, cvSeed)
	if err != nil {
		return nil, err
	}

	type key struct{ day, tick int }
	labels := make(map[key]int, len(samples))
	for i, s := range samples {
		labels[key{s.Day, s.StartTick}] = preds[i]
	}
	var full *re.Classifier
	if hasTwoClasses(samples) {
		if clf, err := re.Train(samples, h.svmConfig(fullModelSalt)); err == nil {
			full = clf
		}
	}
	subset := h.streamSubset(n)
	feat := h.opt.Feat
	feat.TDeltaSec = tDelta

	var mu sync.Mutex
	return func(day int, inputs [][]float64) []control.Action {
		trace := h.ds.Days[day]
		label := func(w md.Window) int {
			k := key{day, w.StartTick}
			mu.Lock()
			defer mu.Unlock()
			l, ok := labels[k]
			if !ok {
				l = re.LabelEntry
				if full != nil {
					l = full.Predict(re.Extract(trace.Streams, subset, w.StartTick, trace.DT, feat))
				}
				labels[k] = l
			}
			return l
		}
		return replay(h.opt.Params, trace, results[day].GapTicks, results[day].Windows, label, inputs)
	}, nil
}

// replay drives a fresh control.Controller through one day, tick by
// tick, and returns every action it emits, in time order. Each input
// goes in at its own time, before the Step of the first tick at or after
// it. The radio is noisy from a window's StartTick until gap ticks past
// its EndTick; label classifies a window when Rule 1 asks. A seated user
// who gets the screensaver reacts ReactionSec later with an input.
func replay(p control.Params, trace *sim.Trace, gap int, wins []md.Window, label func(md.Window) int, inputs [][]float64) []control.Action {
	ctl := control.NewController(p, trace.DT, len(inputs))
	next := make([]int, len(inputs))
	react := make([]float64, len(inputs)) // a seated user's pending reaction; 0 for none
	k := 0
	classify := func() int { return label(wins[k]) }
	var out []control.Action
	for tick := 0; tick < trace.Ticks; tick++ {
		now := trace.Time(tick)
		for ws, in := range inputs {
			for ; next[ws] < len(in) && in[next[ws]] <= now; next[ws]++ {
				out = ctl.Input(ws, in[next[ws]], out)
				react[ws] = 0 // the user is already back at the keyboard
			}
			if r := react[ws]; r > 0 && r <= now {
				out = ctl.Input(ws, r, out)
				react[ws] = 0
			}
		}
		for k < len(wins) && tick >= wins[k].EndTick+gap {
			k++
		}
		win := -1
		if k < len(wins) && tick >= wins[k].StartTick {
			win = tick - wins[k].StartTick
		}
		from := len(out)
		out = ctl.Step(now, win, classify, out)
		for _, a := range out[from:] {
			if a.Type == control.ActionScreensaverOn && seatedAt(trace.Seated[a.Workstation], now) {
				react[a.Workstation] = now + ReactionSec
			}
		}
	}
	return out
}

// seatedAt reports whether the user owning the workstation is seated at
// time t.
func seatedAt(ivs []agent.Interval, t float64) bool {
	for _, iv := range ivs {
		if iv.Contains(t) {
			return true
		}
	}
	return false
}
