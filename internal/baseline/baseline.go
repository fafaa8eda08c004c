// Package baseline implements the comparison policy of the paper's
// evaluation: plain idle-time-out deauthentication (T = 300 s). Under this
// policy every departure leaves the workstation vulnerable for the full
// time-out, every adversary gets an attack opportunity, and users pay no
// usability cost — the reference point of Figs 10 and 13.
package baseline

// Policy is the time-out deauthentication policy.
type Policy struct {
	// TimeoutSec is T, the idle time after which a session locks.
	TimeoutSec float64
}

// Default returns the paper's T = 300 s baseline.
func Default() Policy { return Policy{TimeoutSec: 300} }

// VulnerableTime returns the total unattended-and-authenticated time for
// the given number of departures: each contributes the full time-out.
func (p Policy) VulnerableTime(departures int) float64 {
	return float64(departures) * p.TimeoutSec
}

// AttackOpportunities returns how many of the departures an adversary
// arriving delaySec after the victim's office exit can exploit. exitDelay
// is the typical walk time from workstation to door. Under a pure time-out
// every departure is exploitable as long as the time-out exceeds the
// adversary's arrival time, which holds for any realistic T.
func (p Policy) AttackOpportunities(departures int, exitDelay, delaySec float64) int {
	if p.TimeoutSec > exitDelay+delaySec {
		return departures
	}
	return 0
}
