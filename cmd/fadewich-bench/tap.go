package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"fadewich/internal/wire"
)

// tap is the measuring end of the action stream: it keeps the raw bytes,
// for the byte-identity check against the reference, and stamps every
// frame with the moment its last byte arrived, for latency. It never
// decodes, so it costs the generator process almost nothing while the
// system is measured.
type tap struct {
	raw    []byte
	frames []tapFrame
}

type tapFrame struct {
	at       time.Time
	off, end int // raw[off:end] is the whole frame
}

// read consumes whole wire frames from r until a clean EOF.
func (t *tap) read(r io.Reader) error {
	br := bufio.NewReaderSize(r, 64<<10)
	var hdr [wire.HeaderSize]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("action stream: frame header: %w", err)
		}
		n := int(binary.BigEndian.Uint32(hdr[4:]))
		if hdr[0] != wire.Magic[0] || hdr[1] != wire.Magic[1] || n > wire.MaxPayloadBytes {
			return fmt.Errorf("action stream: %w: bad frame header % x", wire.ErrCorrupt, hdr)
		}
		off := len(t.raw)
		t.raw = append(t.raw, hdr[:]...)
		t.raw = append(t.raw, make([]byte, n+wire.TrailerSize)...)
		if _, err := io.ReadFull(br, t.raw[off+wire.HeaderSize:]); err != nil {
			return fmt.Errorf("action stream: frame body: %w", err)
		}
		t.frames = append(t.frames, tapFrame{at: time.Now(), off: off, end: len(t.raw)})
	}
}

// accept reads the stream a TCP sink delivers to ln, one connection
// after another (a sink redials after a failed write), until ln closes.
func (t *tap) accept(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("action stream: accept: %w", err)
		}
		err = t.read(conn)
		conn.Close()
		if err != nil {
			return err
		}
	}
}

// latencies holds the per-action and per-frame timings of one run, in
// milliseconds.
type latencies struct {
	tickToAction []float64   // frame arrival − due time of the frame's slot, once per action
	slot         []int       // the slot of each tickToAction sample
	deliver      []float64   // frame arrival − POST answer of the frame's slot
	arrival      []time.Time // per slot: arrival of its frame (zero if none)
}

// measure times every online action in the tapped stream from the due
// time of the slot whose flush emitted it. The reference dispatched one
// batch per flush and knows each batch's slot; frame i of the stream is
// the reference's batch i (verify checks the bytes), so every action of
// a frame shares its latency. Attributing by the flush is exact: an
// action's own clock can lag the tick that emitted it (an alert-exit an
// input triggers carries the clock of the tick before the input).
func measure(t *tap, st *slotTimes, ref *reference) (*latencies, error) {
	if len(t.frames) != len(ref.batches) {
		return nil, fmt.Errorf("the action stream has %d frames, the reference dispatched %d batches", len(t.frames), len(ref.batches))
	}
	lat := &latencies{arrival: make([]time.Time, st.n())}
	for i, f := range t.frames {
		s := ref.slots[i]
		if s < 0 {
			continue // a training-day frame
		}
		if s >= st.n() {
			return nil, fmt.Errorf("%w: frame %d belongs to slot %d of %d", errSlotRange, i, s, st.n())
		}
		l := ms(f.at.Sub(st.due[s]))
		for range ref.batches[i] {
			lat.tickToAction = append(lat.tickToAction, l)
			lat.slot = append(lat.slot, s)
		}
		lat.deliver = append(lat.deliver, ms(f.at.Sub(st.done[s])))
		lat.arrival[s] = f.at
	}
	return lat, nil
}

// errSlotRange reports a frame whose slot was never sent.
var errSlotRange = errors.New("frame belongs to a slot that was never sent")

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
