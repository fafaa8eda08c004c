package serve

import (
	"errors"
	"sync"

	"fadewich/internal/stream"
	"fadewich/internal/wire"
)

// broadcaster is the stream.Sink behind GET /v1/actions: every
// dispatched batch is sent as one wire frame per requested variant
// (plain or compressed) to the connected subscribers' buffered
// channels. It pulls those variants from the dispatch cycle's shared
// EncodedBatch, so a variant the segment log or another member already
// encoded is never encoded again.
//
// Delivery is at-most-once per subscriber with a hard overflow rule: a
// subscriber whose channel is full when a frame arrives is dropped
// (its channel closed, the handler disconnects the client). A slow
// consumer must never stall the pump goroutine — durability is the
// segment log's job; a dropped subscriber replays from there and
// re-subscribes. Frames handed to channels are freshly allocated and
// shared read-only between same-variant subscribers.
type broadcaster struct {
	mu        sync.Mutex
	subs      map[*subscriber]struct{}
	closed    bool
	frames    uint64
	actions   uint64
	overflows uint64
	bytes     uint64 // logical bytes handed to channels
	wireBytes uint64 // on-the-wire bytes handed to channels
}

// subscriber is one /v1/actions connection.
type subscriber struct {
	ch       chan []byte
	compress bool
}

// errBroadcasterClosed distinguishes "server shutting down" from a
// write failure.
var errBroadcasterClosed = errors.New("serve: action broadcaster closed")

func newBroadcaster() *broadcaster {
	return &broadcaster{subs: make(map[*subscriber]struct{})}
}

// Subscribe registers a consumer with room for buffer in-flight
// frames; compress requests FlagCompressed frames (small or
// incompressible batches still arrive plain).
func (b *broadcaster) Subscribe(compress bool, buffer int) (*subscriber, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, errBroadcasterClosed
	}
	s := &subscriber{ch: make(chan []byte, buffer), compress: compress}
	b.subs[s] = struct{}{}
	return s, nil
}

// Unsubscribe removes a consumer. Safe to call after an overflow drop
// or Close already removed it.
func (b *broadcaster) Unsubscribe(s *subscriber) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.subs[s]; ok {
		delete(b.subs, s)
		close(s.ch)
	}
}

// Subscribers returns the current consumer count.
func (b *broadcaster) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Stats returns frames broadcast, actions carried and subscribers
// dropped to overflow.
func (b *broadcaster) Stats() (frames, actions, overflows uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.frames, b.actions, b.overflows
}

// ByteStats returns the logical and on-the-wire bytes of broadcast
// frames, counting each encoded variant once per cycle.
func (b *broadcaster) ByteStats() (logical, wireBytes uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bytes, b.wireBytes
}

// WriteEncoded implements stream.Sink on the ingestor's pump
// goroutine: each subscriber's variant (plain or compressed) is pulled
// from the cycle's shared EncodedBatch — encoded at most once across
// the whole fan-out — and handed to same-variant subscribers
// read-only. An empty batch sends nothing; the epoch is ignored.
func (b *broadcaster) WriteEncoded(e *stream.EncodedBatch) error {
	batch := e.Batch()
	if len(batch) == 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return stream.ErrSinkClosed
	}
	b.frames++
	b.actions += uint64(len(batch))
	var seen [2]bool
	for s := range b.subs {
		f, err := e.Frame(wire.V1JSONL, s.compress)
		if err != nil {
			return err
		}
		ci := 0
		if s.compress {
			ci = 1
		}
		if !seen[ci] {
			seen[ci] = true
			b.bytes += uint64(f.Logical)
			b.wireBytes += uint64(len(f.Wire))
		}
		select {
		case s.ch <- f.Wire:
		default:
			delete(b.subs, s)
			close(s.ch)
			b.overflows++
		}
	}
	return nil
}

// Close ends every subscription (channels close, handlers return) and
// refuses further writes. Idempotent.
func (b *broadcaster) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	for s := range b.subs {
		delete(b.subs, s)
		close(s.ch)
	}
	return nil
}
