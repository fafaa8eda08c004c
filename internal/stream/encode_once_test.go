package stream

import (
	"errors"
	"reflect"
	"testing"

	"fadewich/internal/engine"
	"fadewich/internal/segment"
	"fadewich/internal/wire"
)

// recordingFrameSink is a FrameSink that remembers the exact
// *EncodedFrame pointers it pulled, so tests can prove sharing.
type recordingFrameSink struct {
	compress bool
	frames   []*EncodedFrame
	plain    int // Write calls (the non-frame path)
}

func (s *recordingFrameSink) WriteEncoded(e *EncodedBatch) error {
	f, err := e.Frame(wire.V1JSONL, s.compress)
	if err != nil {
		return err
	}
	s.frames = append(s.frames, f)
	return nil
}

func (s *recordingFrameSink) Write(batch []engine.OfficeAction) error {
	s.plain++
	return nil
}

func (s *recordingFrameSink) Close() error { return nil }

// epochRecorder captures WriteEpoch deliveries.
type epochRecorder struct {
	epochs  []uint64
	lengths []int
}

func (s *epochRecorder) Write(batch []engine.OfficeAction) error { return nil }
func (s *epochRecorder) Close() error                            { return nil }
func (s *epochRecorder) WriteEpoch(epoch uint64, batch []engine.OfficeAction) error {
	s.epochs = append(s.epochs, epoch)
	s.lengths = append(s.lengths, len(batch))
	return nil
}

func TestEncodeOnceSharesVariantAcrossMembers(t *testing.T) {
	a := &recordingFrameSink{}
	b := &recordingFrameSink{}
	c := &recordingFrameSink{compress: true}
	ring := NewRingSink(64)
	fan := NewEncodeOnceSink(a, b, c, ring)

	batch := sampleBatch(20)
	if err := fan.Write(batch); err != nil {
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
		t.Fatal("plain member missed the batch")
	}
	if _, err := NewEncodedBatch(batch).Frame(2, false); !errors.Is(err, wire.ErrVersion) {
		t.Fatalf("codec 2 frame: got %v, want wire.ErrVersion", err)
	}

	// A second cycle must not reuse the first cycle's buffers: the
	// first cycle's frames may be retained by consumers.
	first := a.frames[0].Wire
	if err := fan.Write(sampleBatch(21)); err != nil {
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
}

func TestEncodeOnceEpochProtocol(t *testing.T) {
	ep := &epochRecorder{}
	fr := &recordingFrameSink{}
	fan := NewEncodeOnceSink(ep, fr).(*encodeOnceSink)

	if err := fan.WriteEpoch(1, sampleBatch(8)); err != nil {
		t.Fatal(err)
	}
	if err := fan.WriteEpoch(2, nil); err != nil { // empty epoch
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ep.epochs, []uint64{1, 2}) || !reflect.DeepEqual(ep.lengths, []int{8, 0}) {
		t.Fatalf("epoch member saw %v/%v, want epochs 1,2 with lengths 8,0", ep.epochs, ep.lengths)
	}
	// The frame member sees only the non-empty cycle, and through the
	// frame face, not plain Write.
	if len(fr.frames) != 1 || fr.plain != 0 {
		t.Fatalf("frame member: %d frames, %d plain writes; want 1/0", len(fr.frames), fr.plain)
	}
}

// TestEncodeOnceSegmentSinkMatchesDirectWrites proves the fan-out path
// writes a byte-identical segment directory to per-sink encoding.
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
			if err := fan.Write(b); err != nil {
				t.Fatal(err)
			}
			if err := direct.Write(b); err != nil {
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
	if err := s.Write(batch); err != nil {
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
	if err := s.Write(small); err != nil {
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
	if err := s.WriteEpoch(1, b1); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteEpoch(2, b2); err != nil {
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
	if err := s.Close(); err != nil { // sends the FlagFinal frame
		t.Fatal(err)
	}
}

// BenchmarkFanoutEncodeOnce measures a three-way fan-out of the same
// dispatch: "multi" encodes per member (plain sinks, which the fan-out
// hands the raw batch), "shared" pulls one encode per variant from the
// EncodedBatch.
func BenchmarkFanoutEncodeOnce(b *testing.B) {
	batch := sampleBatch(256)
	perSink := func() Sink {
		return &benchEncodingSink{}
	}
	b.Run("multi", func(b *testing.B) {
		fan := NewEncodeOnceSink(perSink(), perSink(), perSink())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fan.Write(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/action")
	})
	b.Run("shared", func(b *testing.B) {
		fan := NewEncodeOnceSink(
			&benchFrameSink{},
			&benchFrameSink{},
			&benchFrameSink{},
		)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fan.Write(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/action")
	})
}

// benchFrameSink pulls its variant and discards it, so the benchmark
// measures encoding, not retention.
type benchFrameSink struct {
	bytes uint64
}

func (s *benchFrameSink) WriteEncoded(e *EncodedBatch) error {
	f, err := e.Frame(wire.V1JSONL, false)
	if err != nil {
		return err
	}
	s.bytes += uint64(len(f.Wire))
	return nil
}

func (s *benchFrameSink) Write(batch []engine.OfficeAction) error { return nil }
func (s *benchFrameSink) Close() error                            { return nil }

// benchEncodingSink stands in for a frame-writing sink that encodes
// privately — the pre-encode-once cost model.
type benchEncodingSink struct {
	buf []byte
}

func (s *benchEncodingSink) Write(batch []engine.OfficeAction) error {
	var err error
	s.buf, err = wire.AppendFrame(s.buf[:0], wire.V1JSONL, batch)
	return err
}

func (s *benchEncodingSink) Close() error { return nil }
