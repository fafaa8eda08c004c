// Sinks: the pluggable backends the merged fleet action stream is pumped
// into. Every sink has one face, WriteEncoded, which takes the dispatch
// cycle's EncodedBatch: the batch, its epoch if it has one, and the
// shared codec-v1 wire frames (package wire) encoded at most once per
// variant. Sinks are safe for use from the pump goroutine plus a
// closing goroutine.

package stream

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"time"

	"fadewich/internal/engine"
	"fadewich/internal/rng"
	"fadewich/internal/wire"
)

// ErrSinkClosed is returned by WriteEncoded on a closed sink.
var ErrSinkClosed = errors.New("stream: sink closed")

// Sink consumes the dispatch cycles of the merged fleet action stream.
// WriteEncoded is called from the Ingestor's pump goroutine, one cycle
// at a time, in dispatch order; a non-nil error marks the sink broken
// (the pump stops writing and surfaces the error). A cycle without an
// epoch always carries a non-empty batch; an epoch-stamped cycle (see
// Ingestor.FlushEpoch) may carry an empty one. Sinks that do not tag
// their output write nothing for an empty batch. Close flushes buffered
// data and releases resources; it must be safe to call after a write
// error and more than once.
type Sink interface {
	WriteEncoded(e *EncodedBatch) error
	Close() error
}

// TCPSinkStats snapshot the delivery counters of a TCPSink.
type TCPSinkStats struct {
	// Frames counts frames delivered to the peer.
	Frames uint64
	// Attempts counts frame write attempts, including retries — with a
	// healthy peer it equals Frames.
	Attempts uint64
	// Redials counts connections re-established after a loss.
	Redials uint64
	// DialFailures and WriteFailures count the individual failed
	// attempts behind those redials.
	DialFailures  uint64
	WriteFailures uint64
	// Bytes counts the logical (uncompressed-equivalent) frame bytes of
	// delivered frames; WireBytes counts the bytes actually sent. They
	// are equal on a sink without compression, and WireBytes/Bytes is
	// the on-wire compression ratio otherwise. Resent frames count
	// once, like Frames.
	Bytes     uint64
	WireBytes uint64
}

// TCPSink streams the action stream to a TCP peer as wire frames
// (magic + version + flags, length, payload, CRC32C — see package
// wire), one frame per dispatched batch. Frames are atomic units — on a
// connection error the sink redials and resends the whole current
// frame, so a consumer never observes a torn frame, though it may
// observe a resent one after a mid-frame disconnect.
//
// Redials back off exponentially: the pause doubles with every
// consecutive failed attempt, from Backoff up to BackoffMax, each pause
// jittered into [d/2, d) by a deterministic generator seeded from the
// peer address — a fleet of sinks desynchronises its redial storms
// while every individual sink remains exactly reproducible.
//
// The exported fields may be tuned before the first WriteEncoded;
// afterwards the sink owns them.
type TCPSink struct {
	// DialTimeout bounds each (re)connection attempt. Default 5 s.
	DialTimeout time.Duration
	// WriteTimeout bounds each frame write, so a stalled peer surfaces
	// as an error instead of blocking the pump forever. Default 10 s.
	WriteTimeout time.Duration
	// Retries is how many times WriteEncoded redials after a connection
	// error before giving up. Default 3.
	Retries int
	// Backoff is the base pause before the first redial attempt.
	// Default 50 ms.
	Backoff time.Duration
	// BackoffMax caps the exponential growth of the pause. Default 2 s.
	BackoffMax time.Duration
	// Source, when non-zero, switches the sink to the cluster's tagged
	// mode: every frame carries this worker source ID and the cycle's
	// epoch (wire.FlagTagged), cycles must carry strictly increasing
	// epochs, and Close sends a FlagFinal frame so the downstream
	// router knows the stream ended cleanly. A cycle without an epoch
	// is refused in this mode — an untagged batch has no place in an
	// epoch-merged stream, and dropping it silently would corrupt the
	// cross-node order. Default 0 (untagged).
	Source uint8
	// Compress, when set, deflates frame bodies at or above
	// wire.DefaultCompressMin (wire.FlagCompressed); small or
	// incompressible batches still go out as plain frames. The decoded
	// stream is byte-identical either way — any frame-aware consumer
	// inflates transparently. Default off.
	Compress bool

	addr string

	mu     sync.Mutex
	conn   net.Conn
	frame  []byte // the tagged mode's reused frame buffer
	closed bool
	// lastEpoch/wroteEpoch track the tagged mode's epoch monotonicity
	// and give the final frame an epoch past every delivered one.
	lastEpoch  uint64
	wroteEpoch bool
	// streak counts consecutive failed attempts across writes; it sets
	// the backoff exponent and resets on a delivered frame.
	streak int
	jitter *rng.Source
	stats  TCPSinkStats
}

// NewTCPSink dials addr and returns a sink streaming wire frames to it.
// The initial dial failing is an error here; later connection failures
// are retried by WriteEncoded.
func NewTCPSink(addr string) (*TCPSink, error) {
	h := fnv.New64a()
	h.Write([]byte(addr))
	s := &TCPSink{
		DialTimeout:  5 * time.Second,
		WriteTimeout: 10 * time.Second,
		Retries:      3,
		Backoff:      50 * time.Millisecond,
		BackoffMax:   2 * time.Second,
		addr:         addr,
		jitter:       rng.New(h.Sum64()),
	}
	conn, err := net.DialTimeout("tcp", addr, s.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("stream: tcp sink %s: %w", addr, err)
	}
	s.conn = conn
	return s, nil
}

// backoffDelay returns the jittered pause before the next redial
// attempt, exponential in the current failure streak.
func (s *TCPSink) backoffDelay() time.Duration {
	base, ceil := s.Backoff, s.BackoffMax
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if ceil <= 0 {
		ceil = 2 * time.Second
	}
	d := base
	for i := 0; i < s.streak && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	half := d / 2
	return half + time.Duration(s.jitter.Float64()*float64(half))
}

// WriteEncoded sends one cycle as a single wire frame, redialing with
// capped exponential backoff up to Retries times on connection errors.
// An untagged sink (Source 0) sends the cycle's shared frame and
// writes nothing for an empty batch. A tagged sink sends a frame
// carrying its source and the cycle's epoch, empty batches included;
// it refuses a cycle without an epoch, and epochs must be strictly
// increasing.
func (s *TCPSink) WriteEncoded(e *EncodedBatch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSinkClosed
	}
	if s.Source == 0 {
		if len(e.Batch()) == 0 {
			return nil
		}
		f, err := e.Frame(wire.V1JSONL, s.Compress)
		if err != nil {
			return fmt.Errorf("stream: tcp sink %s: %w", s.addr, err)
		}
		return s.sendLocked(f.Wire, f.Logical)
	}
	epoch, ok := e.Epoch()
	if !ok {
		return fmt.Errorf("stream: tcp sink %s: tagged sink (source %d) got an untagged batch — drive dispatches with epoch flushes", s.addr, s.Source)
	}
	if s.wroteEpoch && epoch <= s.lastEpoch {
		return fmt.Errorf("stream: tcp sink %s: epoch %d is not after the last delivered epoch %d", s.addr, epoch, s.lastEpoch)
	}
	// The tagged frame's bytes differ from the shared untagged ones, so
	// it is encoded here, into the sink's own reused buffer.
	tag := wire.Tag{Source: s.Source, Epoch: epoch}
	var (
		logical int
		err     error
	)
	if s.Compress {
		s.frame, logical, err = wire.AppendTaggedFrameCompressed(s.frame[:0], wire.V1JSONL, tag, e.Batch(), 0)
	} else {
		s.frame, err = wire.AppendTaggedFrame(s.frame[:0], wire.V1JSONL, tag, e.Batch())
		logical = len(s.frame)
	}
	if err != nil {
		return fmt.Errorf("stream: tcp sink %s: %w", s.addr, err)
	}
	if err := s.sendLocked(s.frame, logical); err != nil {
		return err
	}
	s.lastEpoch, s.wroteEpoch = epoch, true
	return nil
}

// sendLocked delivers frame (logical bytes uncompressed), redialing
// with capped exponential backoff up to Retries times on connection
// errors.
func (s *TCPSink) sendLocked(frame []byte, logical int) error {
	var lastErr error
	for attempt := 0; attempt <= s.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(s.backoffDelay())
		}
		s.stats.Attempts++
		if s.conn == nil {
			conn, err := net.DialTimeout("tcp", s.addr, s.DialTimeout)
			if err != nil {
				lastErr = err
				s.streak++
				s.stats.DialFailures++
				continue
			}
			s.conn = conn
			s.stats.Redials++
		}
		s.conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		if _, err := s.conn.Write(frame); err != nil {
			lastErr = err
			s.streak++
			s.stats.WriteFailures++
			s.conn.Close()
			s.conn = nil
			continue
		}
		s.streak = 0
		s.stats.Frames++
		s.stats.Bytes += uint64(logical)
		s.stats.WireBytes += uint64(len(frame))
		return nil
	}
	return fmt.Errorf("stream: tcp sink %s: %w", s.addr, lastErr)
}

// Stats snapshots the delivery counters.
func (s *TCPSink) Stats() TCPSinkStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close closes the connection. In tagged mode it first sends the
// FlagFinal end-of-stream frame (epoch one past the last delivered),
// so the downstream router can distinguish a clean drain from a lost
// worker; a final frame that cannot be delivered after the usual
// retries is the returned error. Idempotent.
func (s *TCPSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var finalErr error
	if s.Source != 0 {
		var epoch uint64
		if s.wroteEpoch {
			epoch = s.lastEpoch + 1
		}
		// The final frame is empty and never worth compressing.
		s.frame, finalErr = wire.AppendTaggedFrame(s.frame[:0], wire.V1JSONL, wire.Tag{Source: s.Source, Epoch: epoch, Final: true}, nil)
		if finalErr == nil {
			finalErr = s.sendLocked(s.frame, len(s.frame))
		}
	}
	if s.conn == nil {
		return finalErr
	}
	err := s.conn.Close()
	s.conn = nil
	if finalErr != nil {
		return finalErr
	}
	if err != nil {
		return fmt.Errorf("stream: tcp sink %s: %w", s.addr, err)
	}
	return nil
}

// RingSink keeps the most recent actions in a fixed-capacity in-memory
// ring — the inspection/test sink. When full, each new action overwrites
// the oldest and bumps the Overwritten counter.
type RingSink struct {
	mu          sync.Mutex
	buf         []engine.OfficeAction
	start, n    int
	overwritten uint64
	closed      bool
}

// NewRingSink returns a ring holding up to capacity actions (0 selects
// the default of 1024).
func NewRingSink(capacity int) *RingSink {
	if capacity <= 0 {
		capacity = 1024
	}
	return &RingSink{buf: make([]engine.OfficeAction, capacity)}
}

// WriteEncoded appends the cycle's actions, overwriting the oldest on
// wrap.
func (s *RingSink) WriteEncoded(e *EncodedBatch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSinkClosed
	}
	for _, a := range e.Batch() {
		if s.n == len(s.buf) {
			s.buf[s.start] = a
			s.start = (s.start + 1) % len(s.buf)
			s.overwritten++
		} else {
			s.buf[(s.start+s.n)%len(s.buf)] = a
			s.n++
		}
	}
	return nil
}

// Close marks the ring closed; its contents stay readable. Idempotent.
func (s *RingSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// Actions returns the retained actions, oldest first.
func (s *RingSink) Actions() []engine.OfficeAction {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]engine.OfficeAction, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.buf[(s.start+i)%len(s.buf)]
	}
	return out
}

// Len returns the number of retained actions.
func (s *RingSink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Overwritten returns how many actions were evicted by wraparound.
func (s *RingSink) Overwritten() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.overwritten
}
