// Encode-once fan-out: one dispatch cycle encodes each frame variant
// (plain or compressed) exactly once, and every frame-capable
// member of the fan-out shares the resulting read-only bytes. Without
// this, a worker daemon feeding a segment log, a TCP forward and an
// HTTP broadcaster from the same dispatch encodes the same batch three
// times — the encode dominates the pump's cycle cost well before the
// sinks do any I/O.

package stream

import (
	"errors"
	"fmt"
	"sync"

	"fadewich/internal/engine"
	"fadewich/internal/wire"
)

// EncodedFrame is one dispatched batch rendered as a single wire
// frame, together with what the frame-consuming sinks need to account
// for it. Wire is immutable after handoff — it may be retained
// indefinitely and shared read-only across consumers (broadcaster
// subscribers hold it in their channels long after the cycle ends).
type EncodedFrame struct {
	// Wire is the complete frame: header, payload, CRC trailer.
	Wire []byte
	// Logical is the uncompressed-equivalent frame size —
	// len(Wire) unless the body was deflated.
	Logical int
	// Batch is the batch the frame carries, for consumers that need
	// more than bytes (the segment manifest's time bounds, action
	// counters). Not to be mutated.
	Batch []engine.OfficeAction
}

// EncodedBatch hands a dispatch cycle's batch to frame-consuming sinks
// with at-most-once encoding per variant: the first Frame call for a
// compress setting encodes into a fresh buffer, later calls return the
// same EncodedFrame. It is not safe for concurrent use —
// the fan-out drives all members from the pump goroutine.
type EncodedBatch struct {
	batch  []engine.OfficeAction
	frames [2]*EncodedFrame // [compressed]
}

// NewEncodedBatch wraps one batch for frame-sink consumption outside a
// fan-out — a FrameSink driven directly (no NewEncodeOnceSink in
// front) still encodes each variant it needs at most once.
func NewEncodedBatch(batch []engine.OfficeAction) *EncodedBatch {
	return &EncodedBatch{batch: batch}
}

// reset points the EncodedBatch at a new batch and forgets the encoded
// variants (their buffers are owned by whoever received them).
func (e *EncodedBatch) reset(batch []engine.OfficeAction) {
	e.batch = batch
	e.frames = [2]*EncodedFrame{}
}

// Batch returns the cycle's batch. Not to be mutated.
func (e *EncodedBatch) Batch() []engine.OfficeAction { return e.batch }

// Frame returns the batch encoded under codec v, which must be
// wire.V1JSONL, compressed or not, encoding on first use. The returned
// frame's Wire bytes are immutable and may be retained.
func (e *EncodedBatch) Frame(v wire.Version, compress bool) (*EncodedFrame, error) {
	if v != wire.V1JSONL {
		return nil, fmt.Errorf("%w %d", wire.ErrVersion, uint8(v))
	}
	ci := 0
	if compress {
		ci = 1
	}
	if f := e.frames[ci]; f != nil {
		return f, nil
	}
	var (
		frame   []byte
		logical int
		err     error
	)
	if compress {
		frame, logical, err = wire.AppendFrameCompressed(nil, v, e.batch, 0)
	} else {
		frame, err = wire.AppendFrame(nil, v, e.batch)
		logical = len(frame)
	}
	if err != nil {
		return nil, err
	}
	f := &EncodedFrame{Wire: frame, Logical: logical, Batch: e.batch}
	e.frames[ci] = f
	return f, nil
}

// FrameSink is the optional third face of a sink that can consume
// pre-encoded frames: instead of receiving the raw batch and encoding
// privately, the sink pulls the variant(s) it wants from the cycle's
// EncodedBatch, sharing the encode with every other frame-capable
// member of the fan-out.
type FrameSink interface {
	Sink
	WriteEncoded(e *EncodedBatch) error
}

// encodeOnceSink is NewEncodeOnceSink's fan-out.
type encodeOnceSink struct {
	sinks []Sink

	mu sync.Mutex
	eb EncodedBatch
}

// NewEncodeOnceSink returns a sink fanning every Write, WriteEpoch and
// Close out to all the given sinks, with shared encoding: members
// implementing FrameSink receive the cycle's EncodedBatch and pull
// their variant (plain or compressed) from it, so any variant is encoded
// once per dispatch no matter how many members (or broadcaster
// subscribers) consume it. Epoch-stamped flushes keep the epoch
// protocol: EpochSink members get WriteEpoch (empty batches included)
// — a tagged TCP forward's frames carry a tag and remapped IDs,
// different bytes by design, so the epoch face wins over the frame
// face. Remaining members get plain Writes (non-empty ones only for
// epoch flushes). This is how a worker daemon feeds its tagged TCP
// forward and its untagged broadcaster and segment log from the same
// dispatch. One member failing does not stop delivery to the others;
// the errors join.
func NewEncodeOnceSink(sinks ...Sink) Sink {
	return &encodeOnceSink{sinks: append([]Sink(nil), sinks...)}
}

// Write delivers the batch to every member, encoding each requested
// frame variant once.
func (s *encodeOnceSink) Write(batch []engine.OfficeAction) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eb.reset(batch)
	var errs []error
	for _, snk := range s.sinks {
		var err error
		if fs, ok := snk.(FrameSink); ok {
			err = fs.WriteEncoded(&s.eb)
		} else {
			err = snk.Write(batch)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// WriteEpoch delivers an epoch-stamped batch: epoch-aware members get
// the epoch (and empty batches), frame-aware members share the
// encode, the rest get plain non-empty Writes.
func (s *encodeOnceSink) WriteEpoch(epoch uint64, batch []engine.OfficeAction) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eb.reset(batch)
	var errs []error
	for _, snk := range s.sinks {
		var err error
		switch t := snk.(type) {
		case EpochSink:
			err = t.WriteEpoch(epoch, batch)
		case FrameSink:
			if len(batch) > 0 {
				err = t.WriteEncoded(&s.eb)
			}
		default:
			if len(batch) > 0 {
				err = snk.Write(batch)
			}
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Close closes every member, joining any errors.
func (s *encodeOnceSink) Close() error {
	var errs []error
	for _, snk := range s.sinks {
		if err := snk.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
