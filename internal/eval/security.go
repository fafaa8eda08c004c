package eval

// This file regenerates the security experiments: Fig 9 (the distribution
// of deauthentication times after a departure), Fig 10 (attack
// opportunities for the Insider and Co-worker adversaries versus the
// time-out baseline), and Fig 13 (the vulnerable time / user cost
// trade-off). Every departure's fate is read from the actions of the
// day's replay through control.Controller (replay.go).

import (
	"math"
	"sort"
	"strconv"

	"fadewich/internal/baseline"
	"fadewich/internal/control"
	"fadewich/internal/engine"
)

// OutcomeCase identifies a leaf of the paper's decision tree (Fig 5).
type OutcomeCase int

// Decision-tree leaves: case A is a deauthentication by Rule 1 (a true
// positive correctly classified), case B one by the alert path (Rule 2's
// screensaver expiry), and case C one by the baseline time-out, or a
// departure whose user came back before any deauthentication.
const (
	CaseA OutcomeCase = iota + 1
	CaseB
	CaseC
)

// String implements fmt.Stringer.
func (c OutcomeCase) String() string {
	switch c {
	case CaseA:
		return "A"
	case CaseB:
		return "B"
	case CaseC:
		return "C"
	default:
		return "?"
	}
}

// caseOf maps a deauthentication cause to its decision-tree leaf.
var caseOf = [...]OutcomeCase{
	control.CauseRule1:   CaseA,
	control.CauseAlert:   CaseB,
	control.CauseTimeout: CaseC,
}

// DepartureOutcome is one departure's fate.
type DepartureOutcome struct {
	Event TrueEvent
	Case  OutcomeCase
	// Elapsed is the deauthentication delay measured from the departure
	// (the paper's worst-case last-input moment); the time-out T when the
	// user came back first.
	Elapsed float64
}

// DepartureOutcomes classifies every departure event at sensor count n
// (Section VII-C): run MD over the whole period, 5-fold cross-validate
// RE over the TP samples with the given seed (tDelta 0 takes the
// harness t∆), replay each day of the canonical input draw through
// control.Controller, and read each departure from the actions.
func (h *Harness) DepartureOutcomes(n int, tDelta float64, seed uint64) ([]DepartureOutcome, error) {
	if tDelta == 0 {
		tDelta = h.opt.Feat.TDeltaSec
	}
	run, err := h.replayer(n, tDelta, seed)
	if err != nil {
		return nil, err
	}
	var out []DepartureOutcome
	for day := range h.ds.Days {
		out = departureOutcomes(out, h.opt.Params.TimeoutSec, h.events[day], h.inputs[day], run(day, h.inputs[day]))
	}
	return out, nil
}

// departureOutcomes appends the fate of every departure in evs to out.
// A departure's case and delay come from the first deauthentication of
// its workstation after it, unless the user's next input (the return)
// comes first: then the departure is case C at the time-out, and a later
// departure's deauthentication is not credited to it.
func departureOutcomes(out []DepartureOutcome, timeout float64, evs []TrueEvent, inputs [][]float64, acts []control.Action) []DepartureOutcome {
	for _, ev := range evs {
		if ev.Label < 1 {
			continue // entries are not deauthentication subjects
		}
		ws := ev.Label - 1
		in := inputs[ws]
		back := math.Inf(1)
		if i := sort.Search(len(in), func(i int) bool { return in[i] > ev.Time }); i < len(in) {
			back = in[i]
		}
		o := DepartureOutcome{Event: ev, Case: CaseC, Elapsed: timeout}
		for _, a := range acts {
			if a.Type != control.ActionDeauthenticate || a.Workstation != ws || a.Time < ev.Time {
				continue
			}
			if a.Time < back {
				o.Case, o.Elapsed = caseOf[a.Cause], a.Time-ev.Time
			}
			break
		}
		out = append(out, o)
	}
	return out
}

// Fig9Curve is one sensor count's cumulative deauthentication curve.
type Fig9Curve struct {
	Sensors int
	X       []float64 // elapsed seconds
	Y       []float64 // % of departures deauthenticated within X
	Cases   map[OutcomeCase]int
}

// Fig9 computes the proportion of deauthenticated workstations versus time
// elapsed since the user left, for each sensor count.
func (h *Harness) Fig9(sensorCounts []int, maxSec float64) ([]Fig9Curve, error) {
	if len(sensorCounts) == 0 {
		sensorCounts = []int{3, 5, 7, 9}
	}
	if maxSec == 0 {
		maxSec = 10
	}
	return engine.Gather(h.pool, len(sensorCounts), func(i int) (Fig9Curve, error) {
		n := sensorCounts[i]
		outcomes, err := h.DepartureOutcomes(n, 0, figuresCVSeed)
		if err != nil {
			return Fig9Curve{}, err
		}
		curve := Fig9Curve{Sensors: n, Cases: map[OutcomeCase]int{}}
		for _, o := range outcomes {
			curve.Cases[o.Case]++
		}
		total := float64(len(outcomes))
		for x := 0.0; x <= maxSec+1e-9; x += 0.2 {
			count := 0
			for _, o := range outcomes {
				if o.Elapsed <= x {
					count++
				}
			}
			curve.X = append(curve.X, x)
			if total > 0 {
				curve.Y = append(curve.Y, 100*float64(count)/total)
			} else {
				curve.Y = append(curve.Y, 0)
			}
		}
		return curve, nil
	})
}

// Fig10Row is one policy's attack-opportunity percentages.
type Fig10Row struct {
	// Policy is "timeout" or the sensor count.
	Policy      string
	Sensors     int // 0 for the baseline
	Departures  int
	InsiderPct  float64
	CoworkerPct float64
}

// AdversaryDelays configures the two adversaries of Section VII-C: the
// Insider reaches the workstation InsiderSec after the victim exits the
// office; the Co-worker immediately.
type AdversaryDelays struct {
	InsiderSec  float64
	CoworkerSec float64
}

// DefaultAdversaryDelays returns the paper's values (4 s and 0 s).
func DefaultAdversaryDelays() AdversaryDelays {
	return AdversaryDelays{InsiderSec: 4, CoworkerSec: 0}
}

// Fig10 counts, per policy, the percentage of departures an adversary can
// exploit: the workstation is still authenticated when the adversary
// reaches it.
func (h *Harness) Fig10(adv AdversaryDelays) ([]Fig10Row, error) {
	if adv.InsiderSec == 0 && adv.CoworkerSec == 0 {
		adv = DefaultAdversaryDelays()
	}
	pol := baseline.Policy{TimeoutSec: h.opt.Params.TimeoutSec}
	departures := h.departures()
	rows := []Fig10Row{{
		Policy:      "timeout",
		Departures:  departures,
		InsiderPct:  pct(pol.AttackOpportunities(departures, 0, adv.InsiderSec), departures),
		CoworkerPct: pct(pol.AttackOpportunities(departures, 0, adv.CoworkerSec), departures),
	}}
	perCount, err := engine.Gather(h.pool, len(h.opt.SensorCounts), func(i int) (Fig10Row, error) {
		n := h.opt.SensorCounts[i]
		outcomes, err := h.DepartureOutcomes(n, 0, figuresCVSeed)
		if err != nil {
			return Fig10Row{}, err
		}
		insider, coworker := 0, 0
		for _, o := range outcomes {
			deauthAt := o.Event.Time + o.Elapsed
			if deauthAt > o.Event.ExitTime+adv.InsiderSec {
				insider++
			}
			if deauthAt > o.Event.ExitTime+adv.CoworkerSec {
				coworker++
			}
		}
		return Fig10Row{
			Policy:      strconv.Itoa(n),
			Sensors:     n,
			Departures:  len(outcomes),
			InsiderPct:  pct(insider, len(outcomes)),
			CoworkerPct: pct(coworker, len(outcomes)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return append(rows, perCount...), nil
}

func pct(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// departures counts the departure events across days.
func (h *Harness) departures() int {
	n := 0
	for _, ev := range h.AllEvents() {
		if ev.Label >= 1 {
			n++
		}
	}
	return n
}

// Fig13Row is one policy's security/usability trade-off point.
type Fig13Row struct {
	Policy        string
	Sensors       int
	VulnerableMin float64 // total unattended-and-authenticated time
	TotalCostMin  float64 // total user cost over the whole period
}

// Fig13 compares the vulnerable time against the total user cost for the
// time-out baseline and every sensor count. draws is the number of input
// redraws for the cost estimate (the paper uses 100; smaller values trade
// precision for speed).
func (h *Harness) Fig13(draws int) ([]Fig13Row, error) {
	if draws == 0 {
		draws = 20
	}
	days := float64(len(h.ds.Days))
	departures := h.departures()
	pol := baseline.Policy{TimeoutSec: h.opt.Params.TimeoutSec}
	rows := []Fig13Row{{
		Policy:        "timeout",
		VulnerableMin: pol.VulnerableTime(departures) / 60,
		TotalCostMin:  0,
	}}
	usability, err := h.Table4(draws)
	if err != nil {
		return nil, err
	}
	costPerDay := make(map[int]float64, len(usability))
	for _, u := range usability {
		costPerDay[u.Sensors] = u.CostPerDay
	}
	for _, n := range h.opt.SensorCounts {
		outcomes, err := h.DepartureOutcomes(n, 0, figuresCVSeed)
		if err != nil {
			return nil, err
		}
		var vulnerable float64
		for _, o := range outcomes {
			vulnerable += o.Elapsed
		}
		rows = append(rows, Fig13Row{
			Policy:        strconv.Itoa(n),
			Sensors:       n,
			VulnerableMin: vulnerable / 60,
			TotalCostMin:  costPerDay[n] * days / 60,
		})
	}
	return rows, nil
}
