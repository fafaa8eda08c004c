// Encode-once delivery: every sink receives the dispatch cycle as one
// EncodedBatch and pulls the frame variant (plain or compressed) it
// wants from it, so each variant is encoded at most once per cycle no
// matter how many sinks — or broadcaster subscribers — consume it.
// Without this, a worker daemon feeding a segment log, a TCP forward
// and an HTTP broadcaster from the same dispatch encodes the same batch
// three times — the encode dominates the pump's cycle cost well before
// the sinks do any I/O.

package stream

import (
	"errors"
	"fmt"

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

// EncodedBatch is one dispatch cycle as every Sink receives it: the
// merged batch, the epoch the cycle was flushed under (if any), and
// at-most-once encoding per frame variant — the first Frame call for a
// compress setting encodes into a fresh buffer, later calls return the
// same EncodedFrame. It is not safe for concurrent use — the pump
// drives every sink from one goroutine.
type EncodedBatch struct {
	batch    []engine.OfficeAction
	epoch    uint64
	hasEpoch bool
	frames   [2]*EncodedFrame // [compressed]
}

// NewEncodedBatch wraps one batch, without an epoch, for a sink driven
// directly rather than by an Ingestor; the sink still encodes each
// variant it needs at most once.
func NewEncodedBatch(batch []engine.OfficeAction) *EncodedBatch {
	return &EncodedBatch{batch: batch}
}

// reset points the EncodedBatch at a new cycle and forgets the encoded
// variants (their buffers are owned by whoever received them).
func (e *EncodedBatch) reset(batch []engine.OfficeAction, epoch uint64, hasEpoch bool) {
	*e = EncodedBatch{batch: batch, epoch: epoch, hasEpoch: hasEpoch}
}

// Batch returns the cycle's batch. Not to be mutated.
func (e *EncodedBatch) Batch() []engine.OfficeAction { return e.batch }

// Epoch returns the epoch number of a cycle that served
// Ingestor.FlushEpoch. Such a cycle reaches the sinks even when its
// batch is empty — "this epoch dispatched nothing" is what a
// downstream merge watermark needs; sinks that do not tag their output
// write nothing for an empty batch and ignore the epoch.
func (e *EncodedBatch) Epoch() (uint64, bool) { return e.epoch, e.hasEpoch }

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

// encodeOnceSink is NewEncodeOnceSink's fan-out.
type encodeOnceSink []Sink

// NewEncodeOnceSink returns a sink handing every cycle's EncodedBatch
// to all the given sinks, in order, and closing them all on Close.
// Members share the batch's encodes, so a frame variant is encoded once
// per dispatch however many members want it; each member decides from
// the batch alone what to write (a tagged TCP forward encodes its own
// tagged frame, different bytes by design). This is how a worker
// daemon feeds its tagged TCP forward and its untagged broadcaster and
// segment log from the same dispatch. One member failing does not stop
// delivery to the others; the errors join.
func NewEncodeOnceSink(sinks ...Sink) Sink {
	return encodeOnceSink(append([]Sink(nil), sinks...))
}

// WriteEncoded delivers the cycle to every member.
func (s encodeOnceSink) WriteEncoded(e *EncodedBatch) error {
	var errs []error
	for _, snk := range s {
		if err := snk.WriteEncoded(e); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Close closes every member, joining any errors.
func (s encodeOnceSink) Close() error {
	var errs []error
	for _, snk := range s {
		if err := snk.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
