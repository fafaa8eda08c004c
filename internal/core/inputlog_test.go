package core

import (
	"math"
	"slices"
	"testing"

	"fadewich/internal/md"
	"fadewich/internal/re"
	"fadewich/internal/rng"
)

// TestOnlineInputsKeepNoLog pins that the per-workstation input log and
// the labelled samples are training-only state: training keeps only the
// inputs the auto-labeller can still query, FinishTraining releases the
// logs and the samples (keeping their count), and online inputs neither
// grow the logs nor allocate.
func TestOnlineInputsKeepNoLog(t *testing.T) {
	const streams, workstations = 2, 3
	s, err := NewSystem(Config{Streams: streams, Workstations: workstations, MinTrainingSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{-60, -58}
	// Input i lands at workstation i%3 at time i·dt, before tick i+1.
	inputs := func(from, to int) {
		for i := from; i < to; i++ {
			s.NotifyInput(i % workstations)
			s.Tick(row)
		}
	}
	checkLog := func(stage string, want func(ws int) []int) {
		t.Helper()
		for ws := range s.inputLog {
			var times []float64
			for _, i := range want(ws) {
				times = append(times, float64(i)*s.cfg.DT)
			}
			if !slices.Equal(s.inputLog[ws], times) {
				t.Fatalf("%s: workstation %d logs %v, want %v", stage, ws, s.inputLog[ws], times)
			}
		}
	}
	// Warm-up opens no window, so no window to label starts before the
	// next tick: each log keeps its last input and the one before.
	inputs(0, 30)
	checkLog("no window", func(ws int) []int { return []int{24 + ws, 27 + ws} })

	// A window pending from tick 30 keeps every input from time 30·dt
	// on, and the last one before it.
	s.pending = []pendingSample{{window: md.Window{StartTick: 30, EndTick: 40}, resolveAt: math.Inf(1)}}
	inputs(30, 60)
	checkLog("pending window", func(ws int) []int {
		want := []int{27 + ws}
		for i := 30 + ws; i < 60; i += workstations {
			want = append(want, i)
		}
		return want
	})
	s.pending = nil
	inputs(60, 63)
	checkLog("resolved", func(ws int) []int { return []int{57 + ws, 60 + ws} })

	// Labelled samples go in directly: the test is about the log, not
	// the auto-labeller.
	src := rng.New(3)
	for label := 0; label < 2; label++ {
		for i := 0; i < 4; i++ {
			f := make([]float64, streams*re.FeaturesPerStream)
			for j := range f {
				f[j] = float64(label*4) + src.Normal(0, 0.3)
			}
			s.samples = append(s.samples, re.Sample{Features: f, Label: label})
		}
	}
	if err := s.FinishTraining(); err != nil {
		t.Fatal(err)
	}
	if s.samples != nil {
		t.Errorf("online keeps %d training samples, want none", len(s.samples))
	}
	if n := s.TrainingSamples(); n != 8 {
		t.Errorf("TrainingSamples() = %d online, want 8", n)
	}

	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10000; i++ {
			s.NotifyInput(i % workstations)
		}
	})
	if allocs != 0 {
		t.Errorf("10,000 online inputs allocated %.0f times, want 0", allocs)
	}
	for ws := range s.inputLog {
		if n := len(s.inputLog[ws]); n != 0 {
			t.Errorf("workstation %d keeps %d logged inputs online, want 0", ws, n)
		}
	}
}
