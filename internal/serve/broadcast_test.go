package serve

import (
	"bytes"
	"errors"
	"testing"

	"fadewich/internal/core"
	"fadewich/internal/engine"
	"fadewich/internal/stream"
	"fadewich/internal/wire"
)

func testBatch(n int) []engine.OfficeAction {
	batch := make([]engine.OfficeAction, n)
	for i := range batch {
		batch[i] = engine.OfficeAction{
			Office: i,
			Action: core.Action{Time: float64(i) + 0.5, Type: core.ActionAlertEnter},
		}
	}
	return batch
}

func TestBroadcasterDelivers(t *testing.T) {
	b := newBroadcaster()
	s1, err := b.Subscribe(false, 4)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := b.Subscribe(true, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Subscribers() != 2 {
		t.Fatalf("subscribers = %d", b.Subscribers())
	}

	batch := testBatch(3)
	if err := b.WriteEncoded(stream.NewEncodedBatch(batch)); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteEncoded(stream.NewEncodedBatch(nil)); err != nil { // empty batches are skipped
		t.Fatal(err)
	}
	frames, actions, overflows := b.Stats()
	if frames != 1 || actions != 3 || overflows != 0 {
		t.Fatalf("stats = %d/%d/%d", frames, actions, overflows)
	}

	wantPlain, _ := wire.AppendFrame(nil, wire.V1JSONL, batch)
	wantComp, _, _ := wire.AppendFrameCompressed(nil, wire.V1JSONL, batch, 0)
	if got := <-s1.ch; !bytes.Equal(got, wantPlain) {
		t.Fatal("plain subscriber got a frame that differs from AppendFrame")
	}
	if got := <-s2.ch; !bytes.Equal(got, wantComp) {
		t.Fatal("compress subscriber got a frame that differs from AppendFrameCompressed")
	}

	b.Unsubscribe(s1)
	b.Unsubscribe(s1) // idempotent
	if b.Subscribers() != 1 {
		t.Fatalf("subscribers after unsubscribe = %d", b.Subscribers())
	}
	if _, ok := <-s1.ch; ok {
		t.Fatal("unsubscribed channel still open")
	}
}

func TestBroadcasterOverflowDropsSubscriber(t *testing.T) {
	b := newBroadcaster()
	slow, err := b.Subscribe(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := b.Subscribe(false, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Frame 1 fills slow's buffer; frame 2 overflows it. fast keeps
	// receiving: one consumer falling behind never stalls the rest.
	if err := b.WriteEncoded(stream.NewEncodedBatch(testBatch(1))); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteEncoded(stream.NewEncodedBatch(testBatch(2))); err != nil {
		t.Fatal(err)
	}
	_, _, overflows := b.Stats()
	if overflows != 1 {
		t.Fatalf("overflows = %d, want 1", overflows)
	}
	if b.Subscribers() != 1 {
		t.Fatalf("subscribers = %d, want the fast one only", b.Subscribers())
	}
	<-slow.ch // the buffered frame
	if _, ok := <-slow.ch; ok {
		t.Fatal("dropped subscriber's channel not closed")
	}
	if len(fast.ch) != 2 {
		t.Fatalf("fast subscriber has %d frames, want 2", len(fast.ch))
	}
}

func TestBroadcasterClose(t *testing.T) {
	b := newBroadcaster()
	s, _ := b.Subscribe(false, 1)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, ok := <-s.ch; ok {
		t.Fatal("subscriber channel survived Close")
	}
	if err := b.WriteEncoded(stream.NewEncodedBatch(testBatch(1))); !errors.Is(err, stream.ErrSinkClosed) {
		t.Fatalf("post-close write error = %v", err)
	}
	if _, err := b.Subscribe(false, 1); err == nil {
		t.Fatal("subscribed to a closed broadcaster")
	}
}
