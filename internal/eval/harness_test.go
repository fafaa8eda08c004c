package eval

import (
	"sync"
	"testing"

	"fadewich/internal/md"
	"fadewich/internal/sim"
)

// The eval tests share one small dataset (2 × 1.5-hour days) because
// generation dominates runtime; every test treats it as read-only.
var (
	fixtureOnce sync.Once
	fixtureDS   *sim.Dataset
	fixtureErr  error
)

func testDataset(t *testing.T) *sim.Dataset {
	t.Helper()
	fixtureOnce.Do(func() {
		cfg := sim.Config{Days: 2, Seed: 77}
		cfg.Agent.DaySeconds = 5400
		cfg.Agent.MorningJitterSec = 180
		cfg.Agent.DeparturesPerDay = 4
		cfg.Agent.OutsideMeanSec = 180
		fixtureDS, fixtureErr = sim.Generate(cfg)
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureDS
}

func testHarness(t *testing.T) *Harness {
	t.Helper()
	h, err := NewHarness(testDataset(t), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHarnessEvents(t *testing.T) {
	h := testHarness(t)
	evs := h.AllEvents()
	if len(evs) == 0 {
		t.Fatal("no events extracted")
	}
	deps, entries := 0, 0
	for _, e := range evs {
		switch {
		case e.Label >= 1:
			deps++
			if e.ExitTime <= e.Time {
				t.Fatalf("departure exit time %v not after departure %v", e.ExitTime, e.Time)
			}
			if e.ExitTime-e.Time > 20 {
				t.Fatalf("departure→exit gap %v unreasonable", e.ExitTime-e.Time)
			}
		default:
			entries++
		}
	}
	if deps == 0 || entries == 0 {
		t.Fatalf("event mix deps=%d entries=%d", deps, entries)
	}
}

func TestMatchCountsConsistent(t *testing.T) {
	h := testHarness(t)
	results, err := h.RunMD(9)
	if err != nil {
		t.Fatal(err)
	}
	matches, det := h.Match(results, 4.5)
	// TP + FN must equal the number of events.
	if det.TP+det.FN != len(h.AllEvents()) {
		t.Fatalf("TP+FN = %d, events = %d", det.TP+det.FN, len(h.AllEvents()))
	}
	// The per-day match structures must agree with the totals.
	tp := 0
	for _, m := range matches {
		for _, ei := range m.EventIdx {
			if ei >= 0 {
				tp++
			}
		}
		// WindowOf and EventIdx must be mutually consistent.
		for ei, wi := range m.WindowOf {
			if wi >= 0 && m.EventIdx[wi] != ei {
				t.Fatal("WindowOf and EventIdx disagree")
			}
		}
	}
	if tp != det.TP {
		t.Fatalf("per-day TP %d vs total %d", tp, det.TP)
	}
}

func TestMatchSyntheticWindows(t *testing.T) {
	// Hand-built matching scenario exercising TP, FP, FN and duplicate
	// windows, independent of the simulator.
	ds := testDataset(t)
	h, _ := NewHarness(ds, Options{Seed: 5})
	// Craft: one event at t=100 (day 0). Build two overlapping windows
	// and one far-away window.
	h.events = [][]TrueEvent{{
		{Day: 0, Time: 100, Label: 1, ExitTime: 105},
	}, {}}
	dt := ds.Days[0].DT
	res := &md.Result{DT: dt, Windows: []md.Window{
		{StartTick: int(99 / dt), EndTick: int(106 / dt)},  // TP
		{StartTick: int(101 / dt), EndTick: int(107 / dt)}, // duplicate → neither
		{StartTick: int(500 / dt), EndTick: int(506 / dt)}, // FP
	}}
	res2 := &md.Result{DT: dt}
	_, det := h.Match([]*md.Result{res, res2}, 4.5)
	if det.TP != 1 || det.FP != 1 || det.FN != 0 {
		t.Fatalf("detection %+v, want TP=1 FP=1 FN=0", det)
	}
}

func TestMatchFalseNegative(t *testing.T) {
	ds := testDataset(t)
	h, _ := NewHarness(ds, Options{Seed: 5})
	h.events = [][]TrueEvent{{
		{Day: 0, Time: 100, Label: 1},
		{Day: 0, Time: 300, Label: 0},
	}, {}}
	dt := ds.Days[0].DT
	res := &md.Result{DT: dt, Windows: []md.Window{
		{StartTick: int(99 / dt), EndTick: int(106 / dt)},
	}}
	_, det := h.Match([]*md.Result{res, {DT: dt}}, 4.5)
	if det.TP != 1 || det.FN != 1 || det.FP != 0 {
		t.Fatalf("detection %+v, want TP=1 FN=1", det)
	}
}

func TestSamplesAlignWithEvents(t *testing.T) {
	h := testHarness(t)
	results, _ := h.RunMD(9)
	matches, det := h.Match(results, 4.5)
	samples, events := h.SamplesWithEvents(9, matches, 4.5)
	if len(samples) != det.TP {
		t.Fatalf("samples %d, TP %d", len(samples), det.TP)
	}
	if len(events) != len(samples) {
		t.Fatal("events not aligned with samples")
	}
	for i, s := range samples {
		if s.Label != events[i].Label {
			t.Fatalf("sample %d label %d, event label %d", i, s.Label, events[i].Label)
		}
		if len(s.Features) != 72*3 {
			t.Fatalf("sample %d features %d", i, len(s.Features))
		}
	}
}

func TestRunMDCachesResults(t *testing.T) {
	h := testHarness(t)
	a, err := h.RunMD(9)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := h.RunMD(9)
	if &a[0] != &b[0] {
		t.Fatal("RunMD results not cached")
	}
}

func TestRedrawInputsDiffer(t *testing.T) {
	h := testHarness(t)
	a := h.RedrawInputs(1)
	b := h.RedrawInputs(2)
	same := true
	if len(a[0][0]) != len(b[0][0]) {
		same = false
	} else {
		for i := range a[0][0] {
			if a[0][0][i] != b[0][0][i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different redraw seeds produced identical inputs")
	}
	// Same seed → identical draw.
	c := h.RedrawInputs(1)
	for ws := range a[0] {
		if len(a[0][ws]) != len(c[0][ws]) {
			t.Fatal("redraw not deterministic")
		}
	}
}

func TestTable2MatchesEventCounts(t *testing.T) {
	h := testHarness(t)
	rows := h.Table2()
	counts := h.Dataset().EventCounts()
	if len(rows) != len(counts) {
		t.Fatalf("rows %d, counts %d", len(rows), len(counts))
	}
	for i, r := range rows {
		if r.Count != counts[i] {
			t.Fatalf("row %s count %d, want %d", r.Label, r.Count, counts[i])
		}
	}
}

func TestFig7MoreSensorsNoWorse(t *testing.T) {
	h := testHarness(t)
	pts, err := h.Fig7([]float64{4.5}, []int{3, 9})
	if err != nil {
		t.Fatal(err)
	}
	var f3, f9 float64
	for _, p := range pts {
		if p.Sensors == 3 {
			f3 = p.FMeasure
		}
		if p.Sensors == 9 {
			f9 = p.FMeasure
		}
	}
	if f9 < f3 {
		t.Fatalf("9-sensor F-measure %v below 3-sensor %v", f9, f3)
	}
	if f9 < 0.7 {
		t.Fatalf("9-sensor F-measure %v unexpectedly low", f9)
	}
}

func TestTable3Shape(t *testing.T) {
	h := testHarness(t)
	rows, err := h.Table3(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 { // sensor counts 3..9
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		tp, fp, fn := r.Fractions()
		if sum := tp + fp + fn; sum != 0 && (sum < 0.999 || sum > 1.001) {
			t.Fatalf("fractions sum %v", sum)
		}
	}
	// Recall at 9 sensors must beat recall at 3 (the paper's core trend).
	r3, r9 := rows[0].Detection.Recall(), rows[6].Detection.Recall()
	if r9 <= r3 {
		t.Fatalf("recall did not improve with sensors: %v → %v", r3, r9)
	}
}

func TestFig2Separation(t *testing.T) {
	h := testHarness(t)
	data, err := h.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Normal) == 0 || len(data.Walking) == 0 {
		t.Fatal("empty distributions")
	}
	var nMean, wMean float64
	for _, v := range data.Normal {
		nMean += v
	}
	nMean /= float64(len(data.Normal))
	for _, v := range data.Walking {
		wMean += v
	}
	wMean /= float64(len(data.Walking))
	if wMean < 1.5*nMean {
		t.Fatalf("walking mean %v not clearly above normal %v", wMean, nMean)
	}
	if data.Threshold <= nMean {
		t.Fatalf("99th percentile threshold %v at or below the quiet mean %v", data.Threshold, nMean)
	}
}

func TestDepartureOutcomesCoverAllDepartures(t *testing.T) {
	h := testHarness(t)
	outcomes, err := h.DepartureOutcomes(9, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	deps := 0
	for _, e := range h.AllEvents() {
		if e.Label >= 1 {
			deps++
		}
	}
	if len(outcomes) != deps {
		t.Fatalf("outcomes %d, departures %d", len(outcomes), deps)
	}
	// Each deauthentication comes after the idle time its rule needs,
	// counted from the last input before the departure; a case C without
	// a time-out is a user who came back first, charged T.
	p := h.Options().Params
	for _, o := range outcomes {
		idle := o.Event.Time + o.Elapsed - lastInputAt(h.Inputs()[o.Event.Day][o.Event.Label-1], o.Event.Time)
		var need float64
		switch o.Case {
		case CaseA:
			if o.Elapsed <= 0 || o.Elapsed > 12 {
				t.Fatalf("case A elapsed %v", o.Elapsed)
			}
			need = p.TDeltaSec
		case CaseB:
			need = p.TIDSec + p.TSSSec
		case CaseC:
			if o.Elapsed == p.TimeoutSec {
				continue
			}
			need = p.TimeoutSec
		default:
			t.Fatalf("unknown case %v", o.Case)
		}
		if idle < need {
			t.Fatalf("case %v after %v s idle, want at least %v s", o.Case, idle, need)
		}
	}
}

func TestFig9CurvesMonotone(t *testing.T) {
	h := testHarness(t)
	curves, err := h.Fig9([]int{3, 9}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range curves {
		prev := -1.0
		for i, y := range c.Y {
			if y < prev {
				t.Fatalf("n=%d: curve not monotone at x=%v", c.Sensors, c.X[i])
			}
			if y < 0 || y > 100 {
				t.Fatalf("n=%d: percentage %v out of range", c.Sensors, y)
			}
			prev = y
		}
	}
}

func TestFig10BaselineAlwaysVulnerable(t *testing.T) {
	h := testHarness(t)
	rows, err := h.Fig10(AdversaryDelays{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Policy != "timeout" {
		t.Fatal("first row should be the baseline")
	}
	if rows[0].InsiderPct != 100 || rows[0].CoworkerPct != 100 {
		t.Fatalf("baseline opportunities %v/%v, want 100/100", rows[0].InsiderPct, rows[0].CoworkerPct)
	}
	// FADEWICH at 9 sensors must beat the baseline for both adversaries.
	last := rows[len(rows)-1]
	if last.InsiderPct >= 100 || last.CoworkerPct >= 100 {
		t.Fatalf("9 sensors no better than timeout: %+v", last)
	}
	// Co-worker is never easier to stop than the insider.
	for _, r := range rows[1:] {
		if r.CoworkerPct < r.InsiderPct-1e-9 {
			t.Fatalf("co-worker %v%% below insider %v%%", r.CoworkerPct, r.InsiderPct)
		}
	}
}

func TestTable4CostFormula(t *testing.T) {
	h := testHarness(t)
	rows, err := h.Table4(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		want := 3*r.ScreensaversPerDay + 13*r.DeauthsPerDay
		if diff := r.CostPerDay - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("cost %v, want %v", r.CostPerDay, want)
		}
		if r.ScreensaversPerDay < 0 || r.DeauthsPerDay < 0 {
			t.Fatal("negative counts")
		}
	}
}

func TestFig13VulnerableTimeDropsVsTimeout(t *testing.T) {
	h := testHarness(t)
	rows, err := h.Fig13(3)
	if err != nil {
		t.Fatal(err)
	}
	timeoutVuln := rows[0].VulnerableMin
	if rows[0].TotalCostMin != 0 {
		t.Fatal("timeout baseline must have zero cost")
	}
	best := rows[len(rows)-1]
	if best.VulnerableMin >= timeoutVuln/2 {
		t.Fatalf("9 sensors vulnerable %v min, timeout %v min — expected a clear drop",
			best.VulnerableMin, timeoutVuln)
	}
}

func TestFig11Structure(t *testing.T) {
	h := testHarness(t)
	data, err := h.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Corr) != 72 || len(data.StreamNames) != 72 {
		t.Fatalf("matrix %dx, names %d", len(data.Corr), len(data.StreamNames))
	}
	// The paper's observation: streams sharing a device are more
	// correlated than disjoint ones.
	if data.SharedEndpointMean <= data.DisjointMean {
		t.Fatalf("shared-endpoint correlation %v not above disjoint %v",
			data.SharedEndpointMean, data.DisjointMean)
	}
}

func TestTable5RankingSortedAndNamed(t *testing.T) {
	h := testHarness(t)
	rows, err := h.Table5(15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("rows %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].RMI > rows[i-1].RMI {
			t.Fatal("Table V not sorted by RMI")
		}
	}
	for _, r := range rows {
		if r.Name == "" || r.Kind == "" {
			t.Fatalf("unnamed feature %+v", r)
		}
		if r.RMI < 0 || r.RMI > 1 {
			t.Fatalf("RMI %v out of range", r.RMI)
		}
	}
}

func TestFig12GridNormalised(t *testing.T) {
	h := testHarness(t)
	data, err := h.Fig12(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Grid) == 0 {
		t.Fatal("empty grid")
	}
	var max float64
	for _, row := range data.Grid {
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("grid value %v out of [0,1]", v)
			}
			if v > max {
				max = v
			}
		}
	}
	if max != 1 {
		t.Fatalf("grid max %v, want normalised to 1", max)
	}
	if len(data.StreamRMI) != 72 {
		t.Fatalf("stream RMI count %d", len(data.StreamRMI))
	}
}

func TestFig8ShortDatasetStillProducesCurve(t *testing.T) {
	h := testHarness(t)
	pts, err := h.Fig8(Fig8Config{SensorCounts: []int{9}, Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no learning-curve points")
	}
	for _, p := range pts {
		if p.Accuracy < 0 || p.Accuracy > 1 {
			t.Fatalf("accuracy %v", p.Accuracy)
		}
	}
	// Accuracy at the largest size should beat the smallest.
	if pts[len(pts)-1].Accuracy+0.05 < pts[0].Accuracy {
		t.Fatalf("learning curve decreasing: %v → %v", pts[0].Accuracy, pts[len(pts)-1].Accuracy)
	}
}
