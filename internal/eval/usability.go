package eval

// This file regenerates Table IV: the usability cost of FADEWICH —
// erroneous screensavers (cost 3 s) and erroneous deauthentications (cost
// 13 s) suffered by users who are still at their workstations, per day,
// averaged over many independent draws of the simulated keyboard/mouse
// input (the paper uses 100 draws of the Mikkelsen et al. model).
//
// Each draw replays every day through control.Controller (replay.go) and
// counts the screensavers and deauthentications that hit seated users. A
// seated user who sees the screensaver reacts ReactionSec later, which
// cancels the alert before the t_ss grace expires, so it costs 3 s. A
// seated user already idle t_ID + t_ss when Rule 2 fires gets the
// screensaver and the deauthentication on the same tick; that is one
// deauthentication (13 s), since there was no screensaver to cancel.

import (
	"fadewich/internal/agent"
	"fadewich/internal/control"
	"fadewich/internal/stats"
)

// Table4Row is one sensor count's usability figures.
type Table4Row struct {
	Sensors int
	// ScreensaversPerDay and DeauthsPerDay are mean counts of *erroneous*
	// actions (user present) per day; the Std fields give the standard
	// deviation over the input draws.
	ScreensaversPerDay, ScreensaversStd float64
	DeauthsPerDay, DeauthsStd           float64
	// CostPerDay is 3·screensavers + 13·deauths, in seconds.
	CostPerDay float64
}

// Table4 runs the usability simulation with the given number of input
// draws (the paper uses 100).
func (h *Harness) Table4(draws int) ([]Table4Row, error) {
	if draws == 0 {
		draws = 100
	}
	rows := make([]Table4Row, 0, len(h.opt.SensorCounts))
	for _, n := range h.opt.SensorCounts {
		row, err := h.usabilityFor(n, draws)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// usabilityFor computes one Table IV row.
func (h *Harness) usabilityFor(n, draws int) (Table4Row, error) {
	run, err := h.replayer(n, h.opt.Feat.TDeltaSec, table4CVSeed)
	if err != nil {
		return Table4Row{}, err
	}
	// Every draw is an independent replay (RedrawInputs seeds a fresh
	// generator per draw), so the draws fan out over the harness pool
	// with results slotted by draw index.
	days := float64(len(h.ds.Days))
	ssPerDay := make([]float64, draws)
	deauthPerDay := make([]float64, draws)
	if err := h.pool.Map(draws, func(draw int) error {
		inputs := h.RedrawInputs(uint64(draw) + 17)
		var ss, deauth int
		for day, trace := range h.ds.Days {
			s, d := seatedErrors(trace.Seated, run(day, inputs[day]))
			ss += s
			deauth += d
		}
		ssPerDay[draw] = float64(ss) / days
		deauthPerDay[draw] = float64(deauth) / days
		return nil
	}); err != nil {
		return Table4Row{}, err
	}

	row := Table4Row{Sensors: n}
	row.ScreensaversPerDay = stats.Mean(ssPerDay)
	row.ScreensaversStd = stats.StdDevSample(ssPerDay)
	row.DeauthsPerDay = stats.Mean(deauthPerDay)
	row.DeauthsStd = stats.StdDevSample(deauthPerDay)
	row.CostPerDay = 3*row.ScreensaversPerDay + 13*row.DeauthsPerDay
	return row, nil
}

// seatedErrors counts the screensavers and deauthentications in a day's
// time-ordered actions that hit seated users. A screensaver followed by
// a deauthentication of the same workstation on the same tick counts as
// the deauthentication only.
func seatedErrors(seated [][]agent.Interval, acts []control.Action) (screensavers, deauths int) {
	for i, a := range acts {
		if a.Type != control.ActionScreensaverOn && a.Type != control.ActionDeauthenticate ||
			!seatedAt(seated[a.Workstation], a.Time) {
			continue
		}
		if a.Type == control.ActionDeauthenticate {
			deauths++
			continue
		}
		sameTick := false
		for _, b := range acts[i+1:] {
			if b.Time != a.Time {
				break
			}
			sameTick = sameTick || b.Type == control.ActionDeauthenticate && b.Workstation == a.Workstation
		}
		if !sameTick {
			screensavers++
		}
	}
	return screensavers, deauths
}
