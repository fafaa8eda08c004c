package core

import (
	"testing"

	"fadewich/internal/re"
	"fadewich/internal/rng"
)

// TestOnlineInputsKeepNoLog pins that the per-workstation input log and
// the labelled samples are training-only state: training records every
// input, FinishTraining releases the logs and the samples (keeping
// their count), and online inputs neither grow the logs nor allocate.
func TestOnlineInputsKeepNoLog(t *testing.T) {
	const streams, workstations = 2, 3
	s, err := NewSystem(Config{Streams: streams, Workstations: workstations, MinTrainingSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{-60, -58}
	for i := 0; i < 30; i++ {
		s.NotifyInput(i % workstations)
		s.Tick(row)
	}
	for ws := range s.inputLog {
		if len(s.inputLog[ws]) != 10 {
			t.Fatalf("training logged %d inputs at workstation %d, want 10", len(s.inputLog[ws]), ws)
		}
	}

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
