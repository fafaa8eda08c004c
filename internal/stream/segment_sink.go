package stream

import (
	"fmt"
	"sync"
	"time"

	"fadewich/internal/segment"
	"fadewich/internal/wire"
)

// SegmentSink persists the action stream to a durable segment log
// (package segment): every dispatched batch becomes one wire frame in a
// rotating segment file, with an atomically-updated manifest of sealed
// segments. After a crash, segment.OpenDir (or fadewich-tail) replays
// everything up to the last complete frame; the fsync policy in the
// configuration chooses how much a machine crash may cost.
type SegmentSink struct {
	mu     sync.Mutex
	w      *segment.Writer
	closed bool
	// compress mirrors the writer's config: the frame variant this sink
	// pulls from each cycle's EncodedBatch.
	compress bool
}

// NewSegmentSink opens (creating if needed) the segment directory of
// cfg and returns a sink appending the action stream to it. A directory
// with earlier segments is continued, never rewritten: the sink starts
// a fresh segment at the next sequence number.
func NewSegmentSink(cfg segment.Config) (*SegmentSink, error) {
	w, err := segment.NewWriter(cfg)
	if err != nil {
		return nil, fmt.Errorf("stream: segment sink: %w", err)
	}
	return &SegmentSink{w: w, compress: cfg.Compress}, nil
}

// WriteEncoded appends the cycle as one frame, rotating segments as
// configured: the sink pulls its configured variant (plain or
// compressed) from the cycle's shared EncodedBatch and appends the
// encoded frame as-is — no second encode, no mutation of the shared
// bytes. An empty batch writes nothing; the epoch is ignored.
func (s *SegmentSink) WriteEncoded(e *EncodedBatch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSinkClosed
	}
	if len(e.Batch()) == 0 {
		return nil
	}
	f, err := e.Frame(wire.V1JSONL, s.compress)
	if err != nil {
		return fmt.Errorf("stream: segment sink: %w", err)
	}
	if err := s.w.AppendEncoded(f.Wire, f.Logical, f.Batch); err != nil {
		return fmt.Errorf("stream: segment sink: %w", err)
	}
	return nil
}

// Retain runs TTL retention on the segment directory (see
// segment.Writer.Retain) under the sink's lock, so it never interleaves
// with an in-flight WriteEncoded.
func (s *SegmentSink) Retain(ttl time.Duration) (segment.RetainResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return segment.RetainResult{}, ErrSinkClosed
	}
	res, err := s.w.Retain(ttl)
	if err != nil {
		return res, fmt.Errorf("stream: segment sink: %w", err)
	}
	return res, nil
}

// Sync forces the active segment to stable storage, regardless of the
// configured fsync policy.
func (s *SegmentSink) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSinkClosed
	}
	if err := s.w.Sync(); err != nil {
		return fmt.Errorf("stream: segment sink: %w", err)
	}
	return nil
}

// Close seals the active segment and writes the final manifest.
// Idempotent.
func (s *SegmentSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.w.Close(); err != nil {
		return fmt.Errorf("stream: segment sink: %w", err)
	}
	return nil
}

// Stats snapshots the underlying segment writer's counters.
func (s *SegmentSink) Stats() segment.WriterStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Stats()
}

// Sealed returns a copy of the directory's sealed-segment manifest, as
// the underlying writer knows it.
func (s *SegmentSink) Sealed() []segment.Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Sealed()
}
