package stream

import (
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fadewich/internal/engine"
	"fadewich/internal/segment"
	"fadewich/internal/wire"
)

// recordingSink remembers the exact *EncodedFrame pointers it pulled,
// so tests can prove sharing.
type recordingSink struct {
	compress bool
	frames   []*EncodedFrame
}

func (s *recordingSink) WriteEncoded(e *EncodedBatch) error {
	f, err := e.Frame(wire.V1JSONL, s.compress)
	if err != nil {
		return err
	}
	s.frames = append(s.frames, f)
	return nil
}

func (s *recordingSink) Close() error { return nil }

// writeEpoch hands s one epoch-stamped cycle, as an Ingestor's
// FlushEpoch delivers it.
func writeEpoch(s Sink, epoch uint64, batch []engine.OfficeAction) error {
	var e EncodedBatch
	e.reset(batch, epoch, true)
	return s.WriteEncoded(&e)
}

// rawServer accepts one connection and returns every byte read from it
// until the peer closes.
func rawServer(t *testing.T) (addr string, got <-chan []byte) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			ch <- nil
			return
		}
		defer conn.Close()
		b, _ := io.ReadAll(conn)
		ch <- b
	}()
	return ln.Addr().String(), ch
}

// recv waits for a rawServer's bytes.
func recv(t *testing.T, got <-chan []byte) []byte {
	t.Helper()
	select {
	case b := <-got:
		return b
	case <-time.After(5 * time.Second):
		t.Fatal("peer stream not closed within 5s")
		return nil
	}
}

// segmentBytes concatenates a segment directory's files in name order.
func segmentBytes(t *testing.T, dir string) []byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "segment-*.fwl"))
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, n := range names {
		b, err := os.ReadFile(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	return out
}

func TestEncodeOnceSharesVariantAcrossMembers(t *testing.T) {
	a := &recordingSink{}
	b := &recordingSink{}
	c := &recordingSink{compress: true}
	ring := NewRingSink(64)
	addr, fwdBytes := rawServer(t)
	fwd, err := NewTCPSink(addr)
	if err != nil {
		t.Fatal(err)
	}
	fwd.Compress = true
	segDir := t.TempDir()
	seg, err := NewSegmentSink(segment.Config{Dir: segDir, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	fan := NewEncodeOnceSink(a, b, c, ring, fwd, seg)

	batch := sampleBatch(20)
	if err := writeBatch(fan, batch); err != nil {
		t.Fatal(err)
	}
	if len(a.frames) != 1 || len(b.frames) != 1 || len(c.frames) != 1 {
		t.Fatalf("frame deliveries: %d/%d/%d, want 1 each", len(a.frames), len(b.frames), len(c.frames))
	}
	if a.frames[0] != b.frames[0] {
		t.Fatal("same-variant members got different encodes")
	}
	if c.frames[0] == a.frames[0] {
		t.Fatal("different variants shared an encode")
	}
	if got, err := wire.AppendFrame(nil, wire.V1JSONL, batch); err != nil || !reflect.DeepEqual(a.frames[0].Wire, got) {
		t.Fatalf("shared frame differs from a direct encode (%v)", err)
	}
	if !reflect.DeepEqual(ring.Actions(), batch) {
		t.Fatal("ring member missed the batch")
	}
	if _, err := NewEncodedBatch(batch).Frame(2, false); !errors.Is(err, wire.ErrVersion) {
		t.Fatalf("codec 2 frame: got %v, want wire.ErrVersion", err)
	}

	// A second cycle must not reuse the first cycle's buffers: the
	// first cycle's frames may be retained by consumers.
	first := a.frames[0].Wire
	if err := writeBatch(fan, sampleBatch(21)); err != nil {
		t.Fatal(err)
	}
	if &first[0] == &a.frames[1].Wire[0] {
		t.Fatal("cycle 2 reused cycle 1's frame buffer")
	}
	if !reflect.DeepEqual(first, func() []byte {
		f, _ := wire.AppendFrame(nil, wire.V1JSONL, batch)
		return f
	}()) {
		t.Fatal("cycle 1's retained frame was clobbered by cycle 2")
	}

	// The untagged forward and the segment log, both compressing, carry
	// the same bytes: the compressed variant both cycles encoded once.
	if err := fan.Close(); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), c.frames[0].Wire...), c.frames[1].Wire...)
	if len(c.frames[0].Wire) >= c.frames[0].Logical {
		t.Fatal("compressed variant is not compressed; the comparison is weak")
	}
	if got := recv(t, fwdBytes); string(got) != string(want) {
		t.Fatalf("forward stream (%d bytes) differs from the shared compressed frames (%d bytes)", len(got), len(want))
	}
	if got := segmentBytes(t, segDir); string(got) != string(want) {
		t.Fatalf("segment log (%d bytes) differs from the shared compressed frames (%d bytes)", len(got), len(want))
	}
}

// taggedFrame is one decoded frame of a tagged stream.
type taggedFrame struct {
	tag  wire.Tag
	acts []engine.OfficeAction
}

// TestEncodeOnceEpochProtocol pins the epoch rule where it lives, in
// each sink: an Ingestor's epoch flushes reach every fan-out member as
// one EncodedBatch; the tagged forward writes one tagged frame per
// epoch, the empty one included, while the segment log and the ring
// take only the non-empty batch.
func TestEncodeOnceEpochProtocol(t *testing.T) {
	const offices, ticks = 4, 200
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	decoded := make(chan []taggedFrame, 1)
	go func() {
		var out []taggedFrame
		defer func() { decoded <- out }()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		d := wire.NewDecoder(conn)
		for {
			acts, err := d.Decode()
			if err != nil {
				return
			}
			tag, _ := d.Tag()
			out = append(out, taggedFrame{tag, acts})
		}
	}()

	fwd, err := NewTCPSink(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fwd.Source = 2
	segDir := t.TempDir()
	seg, err := NewSegmentSink(segment.Config{Dir: segDir})
	if err != nil {
		t.Fatal(err)
	}
	ring := NewRingSink(0)
	in, err := NewIngestor(testFleet(t, offices, 2), Config{Queue: ticks, Sink: NewEncodeOnceSink(fwd, seg, ring)})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.FlushEpoch(1); err != nil { // nothing queued: an empty epoch
		t.Fatal(err)
	}
	batch, inputs := scenario(offices, ticks)
	pushWindow(t, in, batch, inputs)
	if err := in.FlushEpoch(2); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil { // the forward sends its final frame
		t.Fatal(err)
	}

	want := ring.Actions()
	if len(want) == 0 {
		t.Fatal("scenario produced no actions; the epoch check is vacuous")
	}
	if st := seg.Stats(); st.Frames != 1 {
		t.Fatalf("segment log wrote %d frames, want 1 (the empty epoch writes nothing)", st.Frames)
	}
	r, err := segment.OpenDir(segDir, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var replay []engine.OfficeAction
	for {
		acts, err := r.Next()
		if err != nil {
			break
		}
		replay = append(replay, acts...)
	}
	r.Close()
	if !reflect.DeepEqual(replay, want) {
		t.Fatalf("segment replay: %d actions, ring %d", len(replay), len(want))
	}

	var frames []taggedFrame
	select {
	case frames = <-decoded:
	case <-time.After(5 * time.Second):
		t.Fatal("tagged stream not closed within 5s")
	}
	if len(frames) != 3 {
		t.Fatalf("tagged forward sent %d frames, want 3 (epoch 1, epoch 2, final)", len(frames))
	}
	for i, wantTag := range []wire.Tag{{Source: 2, Epoch: 1}, {Source: 2, Epoch: 2}, {Source: 2, Epoch: 3, Final: true}} {
		if frames[i].tag != wantTag {
			t.Fatalf("frame %d tag %+v, want %+v", i, frames[i].tag, wantTag)
		}
	}
	if len(frames[0].acts) != 0 || len(frames[2].acts) != 0 {
		t.Fatal("the empty epoch or the final frame carried actions")
	}
	if !reflect.DeepEqual(frames[1].acts, want) {
		t.Fatal("epoch 2's tagged frame is not the ring's batch")
	}
}

// TestEncodeOnceSegmentSinkMatchesDirectWrites proves the fan-out path
// writes a byte-identical segment directory to a directly driven sink.
func TestEncodeOnceSegmentSinkMatchesDirectWrites(t *testing.T) {
	for _, compress := range []bool{false, true} {
		dirFan, dirDirect := t.TempDir(), t.TempDir()
		fanSeg, err := NewSegmentSink(segment.Config{Dir: dirFan, Compress: compress})
		if err != nil {
			t.Fatal(err)
		}
		direct, err := NewSegmentSink(segment.Config{Dir: dirDirect, Compress: compress})
		if err != nil {
			t.Fatal(err)
		}
		fan := NewEncodeOnceSink(fanSeg, NewRingSink(0))
		var want []engine.OfficeAction
		for i := 0; i < 6; i++ {
			b := sampleBatch(40 + i)
			if err := writeBatch(fan, b); err != nil {
				t.Fatal(err)
			}
			if err := writeBatch(direct, b); err != nil {
				t.Fatal(err)
			}
			want = append(want, b...)
		}
		if err := fan.Close(); err != nil {
			t.Fatal(err)
		}
		if err := direct.Close(); err != nil {
			t.Fatal(err)
		}
		fs, ds := fanSeg.Stats(), direct.Stats()
		if fs.Frames != ds.Frames || fs.Bytes != ds.Bytes || fs.WireBytes != ds.WireBytes {
			t.Fatalf("compress=%v: fan-out stats %+v differ from direct %+v", compress, fs, ds)
		}
		if compress && fs.WireBytes >= fs.Bytes {
			t.Fatalf("compressed segment sink wrote %d wire bytes for %d logical", fs.WireBytes, fs.Bytes)
		}
		r, err := segment.OpenDir(dirFan, segment.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var got []engine.OfficeAction
		for {
			b, err := r.Next()
			if err != nil {
				break
			}
			got = append(got, b...)
		}
		r.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("compress=%v: fan-out segment replay differs", compress)
		}
	}
}

func TestTCPSinkCompressedStream(t *testing.T) {
	fs := newFrameServer(t)
	s, err := NewTCPSink(fs.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s.Compress = true
	batch := sampleBatch(100)
	if err := writeBatch(s, batch); err != nil {
		t.Fatal(err)
	}
	if got := fs.recvFrame(t); !reflect.DeepEqual(got, batch) {
		t.Fatal("compressed frame decoded to a different batch")
	}
	st := s.Stats()
	if st.WireBytes >= st.Bytes {
		t.Fatalf("compression saved nothing: %d wire bytes for %d logical", st.WireBytes, st.Bytes)
	}
	// A tiny batch rides along as a plain frame — both counters grow by
	// the same amount.
	small := sampleBatch(1)
	if err := writeBatch(s, small); err != nil {
		t.Fatal(err)
	}
	if got := fs.recvFrame(t); !reflect.DeepEqual(got, small) {
		t.Fatal("small batch decoded to a different batch")
	}
	st2 := s.Stats()
	if st2.WireBytes-st.WireBytes != st2.Bytes-st.Bytes {
		t.Fatalf("small plain frame accounted asymmetrically: wire +%d, logical +%d", st2.WireBytes-st.WireBytes, st2.Bytes-st.Bytes)
	}
	s.Close()
}

func TestTCPSinkTaggedCompressedEpochs(t *testing.T) {
	fs := newFrameServer(t)
	s, err := NewTCPSink(fs.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s.Source = 3
	s.Compress = true
	b1, b2 := sampleBatch(80), sampleBatch(90)
	if err := writeEpoch(s, 1, b1); err != nil {
		t.Fatal(err)
	}
	if err := writeEpoch(s, 2, b2); err != nil {
		t.Fatal(err)
	}
	if got := fs.recvFrame(t); !reflect.DeepEqual(got, b1) {
		t.Fatal("epoch 1 decoded to a different batch")
	}
	if got := fs.recvFrame(t); !reflect.DeepEqual(got, b2) {
		t.Fatal("epoch 2 decoded to a different batch")
	}
	st := s.Stats()
	if st.WireBytes >= st.Bytes {
		t.Fatalf("tagged compression saved nothing: %d wire for %d logical", st.WireBytes, st.Bytes)
	}
	if err := writeBatch(s, b1); err == nil || !strings.Contains(err.Error(), "untagged batch") {
		t.Fatalf("tagged sink took a batch without an epoch: %v", err)
	}
	if err := writeEpoch(s, 2, b1); err == nil || !strings.Contains(err.Error(), "not after") {
		t.Fatalf("tagged sink took a repeated epoch: %v", err)
	}
	if got := s.Stats().Frames; got != 2 {
		t.Fatalf("refused cycles sent frames: %d delivered, want 2", got)
	}
	if err := s.Close(); err != nil { // sends the FlagFinal frame
		t.Fatal(err)
	}
}

// BenchmarkFanoutEncodeOnce measures a three-way fan-out of the same
// dispatch: "multi" members each encode privately from the batch,
// "shared" members pull one encode per variant from the EncodedBatch.
func BenchmarkFanoutEncodeOnce(b *testing.B) {
	batch := sampleBatch(256)
	run := func(b *testing.B, fan Sink) {
		var eb EncodedBatch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eb.reset(batch, 0, false)
			if err := fan.WriteEncoded(&eb); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/action")
	}
	b.Run("multi", func(b *testing.B) {
		run(b, NewEncodeOnceSink(&benchEncodingSink{}, &benchEncodingSink{}, &benchEncodingSink{}))
	})
	b.Run("shared", func(b *testing.B) {
		run(b, NewEncodeOnceSink(&benchSharedSink{}, &benchSharedSink{}, &benchSharedSink{}))
	})
}

// benchSharedSink pulls its variant and discards it, so the benchmark
// measures encoding, not retention.
type benchSharedSink struct {
	bytes uint64
}

func (s *benchSharedSink) WriteEncoded(e *EncodedBatch) error {
	f, err := e.Frame(wire.V1JSONL, false)
	if err != nil {
		return err
	}
	s.bytes += uint64(len(f.Wire))
	return nil
}

func (s *benchSharedSink) Close() error { return nil }

// benchEncodingSink stands in for a frame-writing sink that encodes
// privately — the pre-encode-once cost model.
type benchEncodingSink struct {
	buf []byte
}

func (s *benchEncodingSink) WriteEncoded(e *EncodedBatch) error {
	var err error
	s.buf, err = wire.AppendFrame(s.buf[:0], wire.V1JSONL, e.Batch())
	return err
}

func (s *benchEncodingSink) Close() error { return nil }
