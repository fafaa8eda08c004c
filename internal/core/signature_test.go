package core

import (
	"math"
	"testing"

	"fadewich/internal/agent"
	"fadewich/internal/kma"
	"fadewich/internal/office"
	"fadewich/internal/re"
	"fadewich/internal/rf"
	"fadewich/internal/rng"
)

// simulatedDay generates one office day the way package sim does
// (which this package cannot import: sim reaches core through engine).
// It returns the day's RSSI rows, quantised to whole dBm like sim's
// traces, and each workstation's keyboard/mouse input times.
func simulatedDay(t *testing.T, seed uint64, dt float64) (rows, inputs [][]float64, workstations int) {
	t.Helper()
	layout := office.Paper()
	cfg := agent.Config{DaySeconds: 3600, MorningJitterSec: 120, DeparturesPerDay: 4, OutsideMeanSec: 120}
	src := rng.New(seed)
	sched, err := agent.NewSchedule(layout, cfg, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	network, err := rf.NewNetwork(rf.Config{}, layout.Sensors, dt, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	sampler := agent.NewSampler(sched, src.Split())
	states := make([]agent.BodyState, sched.NumUsers())
	var bodies []rf.Body
	sample := make([]float64, network.NumStreams())
	for i := 0; i < int(sched.DaySeconds()/dt); i++ {
		sampler.At(float64(i)*dt, states)
		bodies = bodies[:0]
		for _, st := range states {
			if st.Present {
				bodies = append(bodies, rf.Body{Pos: st.Pos, Speed: st.Speed})
			}
		}
		network.Sample(bodies, sample)
		row := make([]float64, len(sample))
		for k, x := range sample {
			row[k] = float64(int8(x))
		}
		rows = append(rows, row)
	}
	inputs = kma.GenerateInputs(sched.InputSpans(), sched.Events(), kma.InputModel{}, src.Split())
	return rows, inputs, layout.NumWorkstations()
}

// windowWatch follows a training System tick by tick beside the full
// RSSI history it was fed, and checks every window that closes: a
// window at least t∆ long that closes less than t∆ + 30 s + 4 ticks
// after its start must queue exactly one sample, whose features are
// bit for bit re.ExtractWindow over history rows [t1, t1+t∆); any
// other window must queue none.
type windowWatch struct {
	t       *testing.T
	s       *System
	history [][]float64 // history[i] is the row of tick i (ticks count from 1)
	bound   int

	wasIn bool
	// gapEarly: the open window had a normal tick within its first t∆.
	// A window sampled with one was anomalous again afterwards (it is at
	// least t∆ long), so it merged a gap that its signature spans.
	gapEarly bool

	sampled, sampledGapEarly, overBound int
}

func newWindowWatch(t *testing.T, s *System) *windowWatch {
	return &windowWatch{
		t:       t,
		s:       s,
		history: [][]float64{nil},
		bound:   s.tDeltaTicks + int(30/s.cfg.DT) + 4,
	}
}

// tick feeds row to the System and checks the window that closes on it.
func (w *windowWatch) tick(row []float64) {
	s := w.s
	start, lastAnom := s.winStart, s.lastAnom
	s.Tick(row)
	w.history = append(w.history, append([]float64(nil), row...))
	switch {
	case s.inWindow && !w.wasIn:
		w.gapEarly = false
	case s.inWindow && s.lastAnom != s.tick:
		w.gapEarly = w.gapEarly || s.tick-s.winStart < s.tDeltaTicks
	case w.wasIn && !s.inWindow:
		w.closed(start, lastAnom)
	}
	w.wasIn = s.inWindow
}

func (w *windowWatch) closed(start, lastAnom int) {
	s := w.s
	queued := len(s.pending) > 0 && s.pending[len(s.pending)-1].window.StartTick == start
	long := lastAnom+1-start >= s.tDeltaTicks
	over := s.tick-start >= w.bound
	if long && over {
		w.overBound++
	}
	if queued != (long && !over) {
		w.t.Fatalf("window [%d, %d] closing at tick %d (bound %d ticks): queued %v, want %v",
			start, lastAnom, s.tick, w.bound, queued, long && !over)
	}
	if !queued {
		return
	}
	w.checkFeatures(start, s.pending[len(s.pending)-1].features)
	w.sampled++
	if w.gapEarly {
		w.sampledGapEarly++
	}
}

// checkFeatures requires features to be re.ExtractWindow over history
// rows [start, start+t∆), bit for bit.
func (w *windowWatch) checkFeatures(start int, features []float64) {
	w.t.Helper()
	s := w.s
	window := make([][]float64, s.cfg.Streams)
	for k := range window {
		for _, row := range w.history[start : start+s.tDeltaTicks] {
			window[k] = append(window[k], row[k])
		}
	}
	want := re.ExtractWindow(window, s.cfg.DT, s.cfg.Feat)
	if len(features) != len(want) {
		w.t.Fatalf("window at tick %d: %d features, want %d", start, len(features), len(want))
	}
	for i := range want {
		if math.Float64bits(features[i]) != math.Float64bits(want[i]) {
			w.t.Fatalf("window at tick %d: feature %d is %v, the history gives %v",
				start, i, features[i], want[i])
		}
	}
}

// TestCapturedSignatureMatchesHistory runs a simulated training day and
// holds every signature the System captures to the one the day's full
// history gives, gap-merged windows included.
func TestCapturedSignatureMatchesHistory(t *testing.T) {
	const dt = 0.2
	rows, inputs, workstations := simulatedDay(t, 2, dt)
	s, err := NewSystem(Config{DT: dt, Streams: len(rows[0]), Workstations: workstations, MinTrainingSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := newWindowWatch(t, s)
	cursor := make([]int, len(inputs))
	for i, row := range rows {
		now := float64(i+1) * dt
		for ws := range inputs {
			for cursor[ws] < len(inputs[ws]) && inputs[ws][cursor[ws]] <= now {
				s.NotifyInput(ws)
				cursor[ws]++
			}
		}
		w.tick(row)
	}
	t.Logf("%d windows sampled, %d of them merged a gap inside t∆, %d over the bound",
		w.sampled, w.sampledGapEarly, w.overBound)
	if w.sampledGapEarly == 0 {
		t.Fatal("no sampled window merged a gap inside its first t∆")
	}
	if len(s.samples) == 0 {
		t.Fatal("the day labelled no sample")
	}
	for _, smp := range s.samples {
		w.checkFeatures(smp.StartTick, smp.Features)
	}
}

// TestOverlongTrainingWindowYieldsNoSample scripts one window that
// closes past the t∆ + 30 s + 4 ticks bound and one well inside it:
// only the second may queue a sample.
func TestOverlongTrainingWindowYieldsNoSample(t *testing.T) {
	const streams = 2
	s, err := NewSystem(Config{Streams: streams, Workstations: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := newWindowWatch(t, s)
	src := rng.New(9)
	feed := func(n int, sigma float64) {
		row := make([]float64, streams)
		for i := 0; i < n; i++ {
			for k := range row {
				row[k] = -60 + src.Normal(0, sigma)
			}
			w.tick(row)
		}
	}
	feed(400, 0.5) // warm-up and profile
	feed(w.bound+20, 6)
	feed(100, 0.5)
	if w.overBound != 1 || w.sampled != 0 {
		t.Fatalf("after %d noisy ticks: %d windows over the bound, %d sampled; want 1 and 0",
			w.bound+20, w.overBound, w.sampled)
	}
	feed(60, 6)
	feed(100, 0.5)
	if w.overBound != 1 || w.sampled != 1 {
		t.Fatalf("after 60 noisy ticks: %d windows over the bound, %d sampled; want 1 and 1",
			w.overBound, w.sampled)
	}
}
