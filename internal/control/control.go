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
// to be positive. We implement "if ci ∈ S(t∆)". docs/ARCHITECTURE.md
// ("Decision layer") records the discrepancy.
package control

import "fmt"

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

// ActionType enumerates the controller's outputs.
type ActionType int

// Emitted actions. AlertEnter/AlertExit bracket the alert state of Rule 2;
// ScreensaverOn is the t_ID expiry inside an alert; Deauthenticate ends a
// session (the Cause field tells why).
const (
	ActionAlertEnter ActionType = iota + 1
	ActionAlertExit
	ActionScreensaverOn
	ActionDeauthenticate
)

// String implements fmt.Stringer.
func (a ActionType) String() string {
	switch a {
	case ActionAlertEnter:
		return "alert-enter"
	case ActionAlertExit:
		return "alert-exit"
	case ActionScreensaverOn:
		return "screensaver-on"
	case ActionDeauthenticate:
		return "deauthenticate"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Action is one controller output.
type Action struct {
	Time        float64
	Type        ActionType
	Workstation int
	// Cause is set for deauthentications.
	Cause Cause
	// Label is the RE classification that triggered a Rule-1 action
	// (0 = w0); the other deauthentications carry −1.
	Label int
}

// Controller is one office's decision automaton: each workstation's
// session and alert state, driven once per tick by Step and between
// ticks by Input. Not safe for concurrent use.
type Controller struct {
	p      Params
	tDelta int // t∆ in ticks
	inWin  bool
	ws     []session
}

// session is one workstation's state.
type session struct {
	authenticated bool
	hasInput      bool
	lastInput     float64
	alert         bool
	ssOn          bool
}

// NewController returns a Controller for the given number of
// workstations, none of them logged in, stepped every dt seconds.
func NewController(p Params, dt float64, workstations int) *Controller {
	p = p.WithDefaults()
	return &Controller{p: p, tDelta: int(p.TDeltaSec / dt), ws: make([]session, workstations)}
}

// Authenticated reports whether workstation ws has an active session.
func (c *Controller) Authenticated(ws int) bool {
	return ws >= 0 && ws < len(c.ws) && c.ws[ws].authenticated
}

// idle is workstation ws's idle time at now; a never-touched workstation
// has been idle since time 0.
func (c *Controller) idle(ws int, now float64) float64 {
	st := &c.ws[ws]
	if !st.hasInput {
		return now
	}
	return now - st.lastInput
}

// Input records keyboard/mouse input at workstation ws at time now. It
// logs the user in, since a user typing at a locked workstation is
// logging in, and cancels an alert or screensaver with an AlertExit
// appended to out.
func (c *Controller) Input(ws int, now float64, out []Action) []Action {
	if ws < 0 || ws >= len(c.ws) {
		return out
	}
	st := &c.ws[ws]
	st.hasInput = true
	st.lastInput = now
	st.authenticated = true
	if st.alert || st.ssOn {
		st.alert = false
		st.ssOn = false
		out = append(out, Action{Time: now, Type: ActionAlertExit, Workstation: ws})
	}
	return out
}

// Step advances the automaton to time now and appends the tick's actions
// to out. win is the number of ticks since the current variation window
// began (0 on its first tick, growing by one per tick) and −1 while the
// radio is quiet. In order, Step dismisses alerts that never reached the
// screensaver when a window ends, applies Rule 1 when win reaches t∆
// (classify is called then, once per window: 0 means w0, i ≥ 1 names
// workstation i−1), applies Rule 2 while win ≥ t∆, and runs the
// screensaver, alert expiry and time-out.
func (c *Controller) Step(now float64, win int, classify func() int, out []Action) []Action {
	if c.inWin && win < 0 {
		for ws := range c.ws {
			st := &c.ws[ws]
			if st.alert && !st.ssOn {
				st.alert = false
				out = append(out, Action{Time: now, Type: ActionAlertExit, Workstation: ws})
			}
		}
	}
	c.inWin = win >= 0

	if win >= c.tDelta {
		if win == c.tDelta {
			// Rule 1 (see the package comment on the paper's inverted
			// membership test).
			if label := classify(); label >= 1 && label <= len(c.ws) {
				ci := label - 1
				if c.ws[ci].authenticated && c.idle(ci, now) >= c.p.TDeltaSec {
					out = c.deauth(ci, now, CauseRule1, label, out)
				}
			}
		}
		// Rule 2: alert every idle workstation while the window persists.
		for ws := range c.ws {
			st := &c.ws[ws]
			if st.authenticated && !st.alert && c.idle(ws, now) >= c.p.Rule2IdleSec {
				st.alert = true
				out = append(out, Action{Time: now, Type: ActionAlertEnter, Workstation: ws})
			}
		}
	}

	// Alert lifecycle and the baseline time-out backstop.
	for ws := range c.ws {
		st := &c.ws[ws]
		if !st.authenticated {
			continue
		}
		idle := c.idle(ws, now)
		if st.alert {
			if !st.ssOn && idle >= c.p.TIDSec {
				st.ssOn = true
				out = append(out, Action{Time: now, Type: ActionScreensaverOn, Workstation: ws})
			}
			if st.ssOn && idle >= c.p.TIDSec+c.p.TSSSec {
				out = c.deauth(ws, now, CauseAlert, -1, out)
				continue
			}
		}
		if idle >= c.p.TimeoutSec {
			out = c.deauth(ws, now, CauseTimeout, -1, out)
		}
	}
	return out
}

// deauth locks workstation ws's session and appends the action. The
// screensaver flag stays set.
func (c *Controller) deauth(ws int, now float64, cause Cause, label int, out []Action) []Action {
	st := &c.ws[ws]
	st.authenticated = false
	st.alert = false
	return append(out, Action{
		Time: now, Type: ActionDeauthenticate, Workstation: ws,
		Cause: cause, Label: label,
	})
}
