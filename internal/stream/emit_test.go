package stream

import (
	"errors"
	"sync"
	"testing"
)

// cycleSink records what each pump hand-off carried: the batch size and
// the epoch, if any.
type cycleSink struct {
	mu     sync.Mutex
	cycles []sinkCycle
	closed bool
}

type sinkCycle struct {
	actions  int
	epoch    uint64
	hasEpoch bool
}

func (s *cycleSink) WriteEncoded(e *EncodedBatch) error {
	epoch, ok := e.Epoch()
	s.mu.Lock()
	s.cycles = append(s.cycles, sinkCycle{actions: len(e.Batch()), epoch: epoch, hasEpoch: ok})
	s.mu.Unlock()
	return nil
}

func (s *cycleSink) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

// TestEmitRule holds every dispatch trigger to the one emit rule on
// Config.Epochs: on an Epochs ingestor only a FlushEpoch's cycle
// reaches the sink, and Close with actions still held ends in
// ErrUnflushedEpoch; without Epochs every trigger but Advance emits.
// Each case queues a login and 170 ticks of one office (its time-out
// deauthenticates at tick 150), pulls the trigger, then marks the end
// of the trigger's output with a FlushEpoch, which always reaches the
// sink, and closes.
func TestEmitRule(t *testing.T) {
	const ticks, mark = 170, 99
	triggers := []struct {
		name string
		// queue is the office's queue capacity; 4 makes the pushes
		// themselves start Block-policy dispatches.
		queue int
		pull  func(*Ingestor) error
	}{
		{"Flush", ticks + 1, (*Ingestor).Flush},
		{"FlushEpoch", ticks + 1, func(in *Ingestor) error { return in.FlushEpoch(1) }},
		{"Advance", ticks + 1, (*Ingestor).Advance},
		{"RemoveOffice", ticks + 1, func(in *Ingestor) error { _, err := in.RemoveOffice(0); return err }},
		{"Block", 4, func(*Ingestor) error { return nil }},
		{"Close", ticks + 1, nil},
	}
	for _, tr := range triggers {
		for _, epochs := range []bool{false, true} {
			// What the trigger's own cycles hand the sink.
			wantBatch := tr.name != "Advance" && (!epochs || tr.name == "FlushEpoch")
			wantEpoch := tr.name == "FlushEpoch"
			wantErr := error(nil)
			if epochs && tr.name == "Close" {
				wantErr = ErrUnflushedEpoch
			}
			name := tr.name + "/plain"
			if epochs {
				name = tr.name + "/epochs"
			}
			t.Run(name, func(t *testing.T) {
				sink := &cycleSink{}
				in, err := NewIngestor(testFleet(t, 1, 1), Config{Queue: tr.queue, Sink: sink, Epochs: epochs})
				if err != nil {
					t.Fatal(err)
				}
				if err := in.PushInput(0, 0); err != nil {
					t.Fatal(err)
				}
				row := []float64{-60, -58}
				for i := 0; i < ticks; i++ {
					if err := in.Push(0, row); err != nil {
						t.Fatal(err)
					}
				}
				if tr.pull != nil {
					if err := tr.pull(in); err != nil {
						t.Fatal(err)
					}
					if err := in.FlushEpoch(mark); err != nil {
						t.Fatal(err)
					}
				}
				if err := in.Close(); !errors.Is(err, wantErr) {
					t.Fatalf("Close = %v, want %v", err, wantErr)
				}
				if !sink.closed {
					t.Fatal("Close left the sink open")
				}
				var own []sinkCycle
				for _, c := range sink.cycles {
					if c.hasEpoch && c.epoch == mark {
						break
					}
					own = append(own, c)
				}
				total := 0
				for _, c := range sink.cycles {
					total += c.actions
				}
				if len(own) > 0 != wantBatch {
					t.Fatalf("the trigger handed the sink %+v, want a batch: %v", own, wantBatch)
				}
				for _, c := range own {
					if c.hasEpoch != wantEpoch || c.actions == 0 {
						t.Fatalf("the trigger handed the sink %+v, want non-empty batches with an epoch: %v", own, wantEpoch)
					}
				}
				if st := in.Stats(); wantErr == nil && (total == 0 || uint64(total) != st.Actions) {
					t.Fatalf("the sink got %d actions, Stats counts %d; want all of them, and some", total, st.Actions)
				}
			})
		}
	}
}
