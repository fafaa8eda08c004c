// Package control implements FADEWICH's decision layer (Sections IV-F and
// IV-G): the two-state Quiet/Noisy automaton driven by variation-window
// duration, Rule 1 (classify the window at t1+t∆ and deauthenticate the
// attributed workstation if it is idle) and Rule 2 (push every idle
// workstation into alert state while the radio stays noisy, the
// conservative handling of possible overlaps), the alert-state /
// screensaver lifecycle, and the baseline idle time-out as backstop.
//
// The paper's Table I prints Rule 1 as "if ci ∉ S(t∆) then Deauthenticate
// ci", which deauthenticates a workstation that is receiving input; read
// against Sections IV-F/V-B (a misclassified sample must NOT deauthenticate
// the busy workstation it names — that is exactly what makes case B reach
// the real victim via the alert path), the membership test is clearly meant
// to be positive. We implement "if ci ∈ S(t∆)". DESIGN.md records the
// discrepancy.
package control

import (
	"fmt"
	"sort"

	"fadewich/internal/kma"
	"fadewich/internal/md"
)

// Params are the controller timing constants.
type Params struct {
	// TDeltaSec is t∆, the minimum variation-window duration that
	// triggers a classification (Rule 1).
	TDeltaSec float64
	// TIDSec is t_ID: idle time in alert state before the screensaver
	// activates.
	TIDSec float64
	// TSSSec is t_ss: further idle time with the screensaver on before
	// the session is deauthenticated.
	TSSSec float64
	// TimeoutSec is the baseline idle time-out T; it always applies as a
	// backstop (case C of the decision tree).
	TimeoutSec float64
	// Rule2IdleSec is the idle threshold of Rule 2's S(1) query.
	Rule2IdleSec float64
}

// DefaultParams returns the paper's evaluation constants: t∆ = 4.5 s,
// t_ID = 5 s, t_ss = 3 s, T = 300 s.
func DefaultParams() Params {
	return Params{TDeltaSec: 4.5, TIDSec: 5, TSSSec: 3, TimeoutSec: 300, Rule2IdleSec: 1}
}

// WithDefaults returns a copy with zero fields replaced by the paper's
// evaluation constants.
func (p Params) WithDefaults() Params {
	d := DefaultParams()
	if p.TDeltaSec == 0 {
		p.TDeltaSec = d.TDeltaSec
	}
	if p.TIDSec == 0 {
		p.TIDSec = d.TIDSec
	}
	if p.TSSSec == 0 {
		p.TSSSec = d.TSSSec
	}
	if p.TimeoutSec == 0 {
		p.TimeoutSec = d.TimeoutSec
	}
	if p.Rule2IdleSec == 0 {
		p.Rule2IdleSec = d.Rule2IdleSec
	}
	return p
}

// Cause identifies what deauthenticated a session.
type Cause int

// Deauthentication causes: Rule 1's direct classification, the alert-state
// screensaver expiry, and the baseline idle time-out.
const (
	CauseRule1 Cause = iota + 1
	CauseAlert
	CauseTimeout
)

// String implements fmt.Stringer.
func (c Cause) String() string {
	switch c {
	case CauseRule1:
		return "rule1"
	case CauseAlert:
		return "alert-expiry"
	case CauseTimeout:
		return "timeout"
	default:
		return fmt.Sprintf("cause(%d)", int(c))
	}
}

// Deauth is one deauthentication action.
type Deauth struct {
	Time        float64
	Workstation int
	Cause       Cause
}

// Screensaver is one screensaver activation.
type Screensaver struct {
	Time        float64
	Workstation int
}

// Log collects the controller's actions over one day.
type Log struct {
	Deauths      []Deauth
	Screensavers []Screensaver
	// Rule1Fired counts Rule 1 activations (one per qualifying window).
	Rule1Fired int
	// Logins counts session (re-)authentications.
	Logins int
}

// FirstDeauthAfter returns the first deauthentication of workstation ws at
// or after t, and false if none occurred.
func (l *Log) FirstDeauthAfter(ws int, t float64) (Deauth, bool) {
	idx := sort.Search(len(l.Deauths), func(i int) bool { return l.Deauths[i].Time >= t })
	for ; idx < len(l.Deauths); idx++ {
		if l.Deauths[idx].Workstation == ws {
			return l.Deauths[idx], true
		}
	}
	return Deauth{}, false
}

// Prediction supplies the RE classifier's output for a variation window.
// It is invoked lazily, only for windows whose duration reaches t∆, at the
// moment t1+t∆ — mirroring the online phase. Label 0 means w0 (entry);
// label i ≥ 1 names workstation i−1.
type Prediction func(w md.Window) int

// Run replays one day through the controller. windows must be the MD
// module's raw variation windows (unfiltered), time-sorted; tracker must
// be freshly reset; present reports whether the workstation's user is
// physically at the desk (used only for action bookkeeping by the caller —
// the controller itself never peeks). numWS is the workstation count and
// daySec the day length.
func Run(p Params, dt, daySec float64, numWS int, windows []md.Window, predict Prediction, tracker *kma.Tracker) *Log {
	p = p.WithDefaults()
	log := &Log{}

	states := make([]wsState, numWS)

	ticks := int(daySec / dt)
	tDeltaTicks := int(p.TDeltaSec / dt)

	winIdx := 0
	curWin := -1 // index into windows of the active window, -1 if Quiet
	rule1Done := false

	idleBuf := make([]int, 0, numWS)

	for tick := 0; tick < ticks; tick++ {
		t := float64(tick) * dt

		// Detect fresh input per workstation: login, alert cancellation.
		for ws := 0; ws < numWS; ws++ {
			st := &states[ws]
			last, ok := tracker.LastInput(ws, t)
			if ok && (!st.hasInput || last > st.lastInput) {
				st.hasInput = true
				st.lastInput = last
				if !st.authenticated {
					st.authenticated = true
					log.Logins++
				}
				// Input dismisses alert state and the screensaver.
				st.alert = false
				st.ssOn = false
			}
		}

		// Track the active variation window.
		if curWin >= 0 && tick >= windows[curWin].EndTick {
			// Window over: back to Quiet. Alert states that never
			// reached the screensaver are dismissed.
			for ws := range states {
				if states[ws].alert && !states[ws].ssOn {
					states[ws].alert = false
				}
			}
			curWin = -1
		}
		for winIdx < len(windows) && windows[winIdx].EndTick <= tick {
			winIdx++
		}
		if curWin < 0 && winIdx < len(windows) && windows[winIdx].StartTick <= tick {
			curWin = winIdx
			rule1Done = false
		}

		if curWin >= 0 {
			dW := tick - windows[curWin].StartTick
			if dW >= tDeltaTicks {
				if !rule1Done {
					rule1Done = true
					log.Rule1Fired++
					label := predict(windows[curWin])
					if label >= 1 && label <= numWS {
						ci := label - 1
						st := &states[ci]
						// Rule 1: deauthenticate ci if it has been idle
						// for t∆ (see package comment on the paper's
						// inverted membership test).
						if st.authenticated && st.idle(t) >= p.TDeltaSec {
							st.authenticated = false
							st.alert = false
							log.Deauths = append(log.Deauths, Deauth{Time: t, Workstation: ci, Cause: CauseRule1})
						}
					}
				}
				// Rule 2 at every tick while the window persists.
				idleBuf = idleBuf[:0]
				for ws := 0; ws < numWS; ws++ {
					if states[ws].idle(t) >= p.Rule2IdleSec {
						idleBuf = append(idleBuf, ws)
					}
				}
				for _, ws := range idleBuf {
					if states[ws].authenticated {
						states[ws].alert = true
					}
				}
			}
		}

		// Alert-state lifecycle and the baseline time-out backstop.
		for ws := 0; ws < numWS; ws++ {
			st := &states[ws]
			if !st.authenticated {
				continue
			}
			idle := st.idle(t)
			if st.alert {
				if !st.ssOn && idle >= p.TIDSec {
					st.ssOn = true
					log.Screensavers = append(log.Screensavers, Screensaver{Time: t, Workstation: ws})
				}
				if st.ssOn && idle >= p.TIDSec+p.TSSSec {
					st.authenticated = false
					st.alert = false
					log.Deauths = append(log.Deauths, Deauth{Time: t, Workstation: ws, Cause: CauseAlert})
					continue
				}
			}
			if idle >= p.TimeoutSec {
				st.authenticated = false
				st.alert = false
				st.ssOn = false
				log.Deauths = append(log.Deauths, Deauth{Time: t, Workstation: ws, Cause: CauseTimeout})
			}
		}
	}

	sort.Slice(log.Deauths, func(i, j int) bool { return log.Deauths[i].Time < log.Deauths[j].Time })
	return log
}

// wsState is the controller's per-workstation session state.
type wsState struct {
	authenticated bool
	lastInput     float64
	hasInput      bool
	alert         bool
	ssOn          bool
}

// idle computes idle time from the cached last-input state, treating a
// never-touched workstation as idle since day start.
func (st *wsState) idle(now float64) float64 {
	if !st.hasInput {
		return now
	}
	return now - st.lastInput
}
