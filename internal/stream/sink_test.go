package stream

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"fadewich/internal/control"
	"fadewich/internal/core"
	"fadewich/internal/engine"
	"fadewich/internal/segment"
	"fadewich/internal/wire"
)

func sampleBatch(n int) []engine.OfficeAction {
	out := make([]engine.OfficeAction, n)
	for i := range out {
		out[i] = engine.OfficeAction{
			Office: i % 5,
			Action: core.Action{
				Time:        float64(i) * 0.2,
				Type:        core.ActionDeauthenticate,
				Workstation: i % 3,
				Cause:       control.CauseTimeout,
			},
		}
	}
	return out
}

func TestLogSinkWritesJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "actions.jsonl")
	s, err := NewLogSink(path)
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := sampleBatch(3), sampleBatch(5)
	if err := s.Write(b1); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(b2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := s.Write(b1); !errors.Is(err, ErrSinkClosed) {
		t.Fatalf("write after close returned %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := wire.AppendJSONL(wire.AppendJSONL(nil, b1), b2)
	if !bytes.Equal(got, want) {
		t.Fatalf("file content differs: %d vs %d bytes", len(got), len(want))
	}
}

func TestLogSinkUnwritablePathFailsFast(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "actions.jsonl")
	if _, err := NewLogSink(path); err == nil {
		t.Fatal("log sink on an unwritable path succeeded")
	}
}

func TestRingSinkWraparound(t *testing.T) {
	s := NewRingSink(4)
	batch := sampleBatch(10)
	if err := s.Write(batch); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Fatalf("ring holds %d actions, want 4", s.Len())
	}
	if s.Overwritten() != 6 {
		t.Fatalf("overwritten %d, want 6", s.Overwritten())
	}
	if got := s.Actions(); !reflect.DeepEqual(got, batch[6:]) {
		t.Fatalf("ring content %v, want the 4 newest actions", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(batch); !errors.Is(err, ErrSinkClosed) {
		t.Fatalf("write after close returned %v", err)
	}
	if s.Len() != 4 {
		t.Fatal("close lost the retained actions")
	}
}

// failSink fails every operation — the broken-backend stand-in.
type failSink struct{ err error }

func (s failSink) Write([]engine.OfficeAction) error { return s.err }
func (s failSink) Close() error                      { return s.err }

func TestMultiSinkDeliversPastFailures(t *testing.T) {
	ring := NewRingSink(64)
	boom := errors.New("boom")
	multi := NewEncodeOnceSink(failSink{err: boom}, ring)
	batch := sampleBatch(3)
	if err := multi.Write(batch); !errors.Is(err, boom) {
		t.Fatalf("multi write returned %v, want the failing sink's error", err)
	}
	if ring.Len() != 3 {
		t.Fatal("failure in one sink stopped delivery to the others")
	}
	if err := multi.Close(); !errors.Is(err, boom) {
		t.Fatalf("multi close returned %v", err)
	}
}

// frameServer accepts connections and decodes each received wire frame,
// forwarding the actions; conns are handed out for the test to kill.
type frameServer struct {
	ln     net.Listener
	frames chan []engine.OfficeAction
	conns  chan net.Conn
}

func newFrameServer(t *testing.T) *frameServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &frameServer{ln: ln, frames: make(chan []engine.OfficeAction, 64), conns: make(chan net.Conn, 8)}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			fs.conns <- conn
			go func(c net.Conn) {
				d := wire.NewDecoder(c)
				for {
					acts, err := d.Decode()
					if err != nil {
						return
					}
					fs.frames <- acts
				}
			}(conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return fs
}

func (fs *frameServer) recvFrame(t *testing.T) []engine.OfficeAction {
	t.Helper()
	select {
	case f := <-fs.frames:
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("no frame received within 5s")
		return nil
	}
}

func (fs *frameServer) recvConn(t *testing.T) net.Conn {
	t.Helper()
	select {
	case c := <-fs.conns:
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("no connection accepted within 5s")
		return nil
	}
}

func TestTCPSinkStreamsFrames(t *testing.T) {
	fs := newFrameServer(t)
	s, err := NewTCPSink(fs.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	batch := sampleBatch(7)
	if err := s.Write(batch); err != nil {
		t.Fatal(err)
	}
	if got := fs.recvFrame(t); !reflect.DeepEqual(got, batch) {
		t.Fatal("decoded frame differs from the batch")
	}
	st := s.Stats()
	if st.Frames != 1 || st.Attempts != 1 || st.Redials != 0 {
		t.Fatalf("healthy-path stats %+v", st)
	}
	s.Close()
}

// TestTCPSinkReconnectsAfterPeerDisconnect kills the peer connection
// mid-stream and checks the sink redials and keeps delivering frames on
// a fresh connection, counting the redial in its stats.
func TestTCPSinkReconnectsAfterPeerDisconnect(t *testing.T) {
	fs := newFrameServer(t)
	s, err := NewTCPSink(fs.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Backoff = time.Millisecond
	s.BackoffMax = 10 * time.Millisecond
	s.Retries = 5

	if err := s.Write(sampleBatch(2)); err != nil {
		t.Fatal(err)
	}
	fs.recvFrame(t)
	fs.recvConn(t).Close() // peer disconnects mid-stream

	// The write after a peer close can succeed locally (the kernel
	// buffers it before the RST lands), so push frames until one arrives
	// on the redialed connection.
	delivered := false
	for i := 0; i < 20 && !delivered; i++ {
		if err := s.Write(sampleBatch(3)); err != nil {
			t.Fatalf("write %d failed despite live listener: %v", i, err)
		}
		select {
		case <-fs.frames:
			delivered = true
		case <-time.After(100 * time.Millisecond):
		}
	}
	if !delivered {
		t.Fatal("no frame arrived after reconnect")
	}
	if st := s.Stats(); st.Redials == 0 {
		t.Fatalf("reconnect not counted: %+v", st)
	}
}

// TestTCPSinkPeerGoneSurfacesError removes the peer entirely: writes
// must start failing (after retries) instead of blocking, and the
// failed attempts must show up in the stats.
func TestTCPSinkPeerGoneSurfacesError(t *testing.T) {
	fs := newFrameServer(t)
	s, err := NewTCPSink(fs.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Backoff = time.Millisecond
	s.BackoffMax = 4 * time.Millisecond
	s.Retries = 2
	s.DialTimeout = 200 * time.Millisecond

	fs.recvConn(t).Close()
	fs.ln.Close()

	var writeErr error
	for i := 0; i < 20 && writeErr == nil; i++ {
		writeErr = s.Write(sampleBatch(1))
	}
	if writeErr == nil {
		t.Fatal("writes kept succeeding with no peer")
	}
	st := s.Stats()
	if st.Attempts <= st.Frames {
		t.Fatalf("failed attempts not counted: %+v", st)
	}
	if st.DialFailures == 0 && st.WriteFailures == 0 {
		t.Fatalf("no failures recorded despite the dead peer: %+v", st)
	}
}

// TestTCPSinkBackoffDeterministicAndCapped checks the redial pause
// grows exponentially with the failure streak, never exceeds
// BackoffMax, never undershoots half the scheduled pause, and is
// reproducible across sinks dialing the same peer.
func TestTCPSinkBackoffDeterministicAndCapped(t *testing.T) {
	fs := newFrameServer(t)
	addr := fs.ln.Addr().String()
	mk := func() *TCPSink {
		s, err := NewTCPSink(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		s.Backoff = 10 * time.Millisecond
		s.BackoffMax = 80 * time.Millisecond
		return s
	}
	a, b := mk(), mk()
	var seqA, seqB []time.Duration
	for streak := 0; streak < 8; streak++ {
		a.streak, b.streak = streak, streak
		da, db := a.backoffDelay(), b.backoffDelay()
		seqA, seqB = append(seqA, da), append(seqB, db)
		// Scheduled pause before jitter: min(10ms << streak, 80ms); the
		// jittered value lands in [d/2, d).
		d := 10 * time.Millisecond << streak
		if d > 80*time.Millisecond {
			d = 80 * time.Millisecond
		}
		if da < d/2 || da >= d {
			t.Fatalf("streak %d: delay %v outside [%v, %v)", streak, da, d/2, d)
		}
	}
	if !reflect.DeepEqual(seqA, seqB) {
		t.Fatalf("same-peer sinks disagree on the backoff sequence:\n%v\n%v", seqA, seqB)
	}
}

// TestIngestorSinkFailureDoesNotDeadlock runs a full ingest cycle into a
// sink that always fails: the error must surface through Err/Close while
// producers and Flush keep completing (the pump drains instead of
// wedging).
func TestIngestorSinkFailureDoesNotDeadlock(t *testing.T) {
	const offices, ticks, windowTicks = 4, 200, 50
	batch, inputs := scenario(offices, ticks)
	boom := errors.New("backend down")
	in, err := NewIngestor(testFleet(t, offices, 2), Config{Queue: windowTicks, Sink: failSink{err: boom}})
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < ticks; start += windowTicks {
		sub, evs := window(batch, inputs, start, min(start+windowTicks, ticks))
		pushWindow(t, in, sub, evs)
		// Flush may already return the recorded sink error; it must not
		// block either way.
		_ = in.Flush()
	}
	err = in.Close()
	if !errors.Is(err, boom) {
		t.Fatalf("close returned %v, want the sink error", err)
	}
	if !errors.Is(in.Err(), boom) {
		t.Fatalf("Err() returned %v, want the sink error", in.Err())
	}
	if st := in.Stats(); st.Actions == 0 {
		t.Fatal("scenario produced no actions; the deadlock check is vacuous")
	}
}

func TestSegmentSinkRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSegmentSink(segment.Config{Dir: dir, MaxSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := sampleBatch(4), sampleBatch(9)
	if err := s.Write(b1); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(b2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := s.Write(b1); !errors.Is(err, ErrSinkClosed) {
		t.Fatalf("write after close returned %v", err)
	}
	if st := s.Stats(); st.Frames != 2 {
		t.Fatalf("segment sink stats %+v, want 2 frames", st)
	}
	r, err := segment.OpenDir(dir, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got []engine.OfficeAction
	for {
		acts, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, acts...)
	}
	want := append(append([]engine.OfficeAction(nil), b1...), b2...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("segment replay differs: %d vs %d actions", len(got), len(want))
	}
}

// TestSegmentSinkCrashReplayMatchesGoldenPrefix is the acceptance check
// of the durable path: the same 64-office fleet scenario the RingSink
// golden test runs is streamed into a segment sink, the "process" is
// killed mid-day (the sink is abandoned un-Closed and the active
// segment truncated mid-frame), and the replayed stream must be exactly
// the byte prefix of the RingSink reference stream under codec v1.
func TestSegmentSinkCrashReplayMatchesGoldenPrefix(t *testing.T) {
	const offices, ticks, windowTicks = 64, 260, 77
	batch, inputs := scenario(offices, ticks)

	// Reference stream: the RingSink run (itself pinned byte-identical
	// to the synchronous fleet by TestIngestorMatchesSynchronousFleet).
	ring := NewRingSink(8192)
	dir := t.TempDir()
	seg, err := NewSegmentSink(segment.Config{Dir: dir, MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewIngestor(testFleet(t, offices, 4), Config{Queue: windowTicks, Sink: NewEncodeOnceSink(ring, seg)})
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < ticks; start += windowTicks {
		sub, evs := window(batch, inputs, start, min(start+windowTicks, ticks))
		pushWindow(t, in, sub, evs)
		if err := in.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	want := wire.AppendJSONL(nil, ring.Actions())

	// The ingestor's Close sealed the log cleanly; un-seal the crash
	// site by hand — chop the last sealed segment mid-frame and drop it
	// from the manifest, exactly the state a kill -9 leaves behind
	// (frames flushed up to some point, the last one torn, no seal).
	st := seg.Stats()
	if st.Sealed < 2 || st.Frames < 2 {
		t.Fatalf("scenario sealed %d segments / %d frames; the crash cut needs at least two", st.Sealed, st.Frames)
	}
	names, err := filepath.Glob(filepath.Join(dir, "segment-*.fwl"))
	if err != nil || len(names) != st.Sealed {
		t.Fatalf("glob: %v (%d names, %d sealed)", err, len(names), st.Sealed)
	}
	last := names[len(names)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-11); err != nil {
		t.Fatal(err)
	}
	man, err := os.ReadFile(filepath.Join(dir, segment.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	trimmed := bytes.LastIndex(man, []byte(filepath.Base(last)))
	if trimmed < 0 {
		t.Fatal("last segment not in manifest")
	}
	// Rewrite the manifest without its final entry by re-sealing through
	// a fresh writer-free path: simplest is to delete it — a directory
	// whose writer never rotated has no manifest at all, and the reader
	// must cope either way.
	if err := os.Remove(filepath.Join(dir, segment.ManifestName)); err != nil {
		t.Fatal(err)
	}

	r, err := segment.OpenDir(dir, segment.Options{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var replay []engine.OfficeAction
	for {
		acts, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		replay = append(replay, acts...)
	}
	got := wire.AppendJSONL(nil, replay)
	if !bytes.HasPrefix(want, got) {
		t.Fatal("replayed stream is not a byte prefix of the RingSink reference stream")
	}
	if len(got) == 0 || len(got) == len(want) {
		t.Fatalf("replay covers %d of %d bytes; the torn tail made it vacuous", len(got), len(want))
	}
	info, torn := r.Torn()
	if !torn || !info.Repaired {
		t.Fatalf("torn tail not reported/repaired: %+v (torn=%v)", info, torn)
	}
}
