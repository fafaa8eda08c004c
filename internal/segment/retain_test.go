package segment

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"fadewich/internal/engine"
	"fadewich/internal/wire"
)

// sealedDir writes n sealed segments of compressible batches under a
// pinned clock that advances one minute per batch, plus an active
// (unsealed) tail, and returns the writer (still open), the clock's
// final value and the full action stream.
func sealedDir(t *testing.T, dir string, n int, cfg Config) (*Writer, time.Time, []engine.OfficeAction) {
	t.Helper()
	cfg.Dir = dir
	if cfg.MaxSegmentBytes == 0 {
		cfg.MaxSegmentBytes = 1 // every batch seals its own segment
	}
	w, err := NewWriter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(100000, 0)
	w.now = func() time.Time { return clock }
	var all []engine.OfficeAction
	for i := 0; i < n+1; i++ {
		b := mkBatch(i%3, float64(1+i*100), 40)
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
		clock = clock.Add(time.Minute)
	}
	if got := w.Stats().Sealed; got != n {
		t.Fatalf("sealed %d segments, want %d", got, n)
	}
	return w, clock, all
}

func TestCompressedWriterShrinksAndReplays(t *testing.T) {
	plainDir, compDir := t.TempDir(), t.TempDir()
	wp, _, all := sealedDir(t, plainDir, 4, Config{})
	wc, _, allC := sealedDir(t, compDir, 4, Config{Compress: true})
	if err := wp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wc.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all, allC) {
		t.Fatal("fixture streams differ")
	}
	st := wc.Stats()
	if st.WireBytes >= st.Bytes {
		t.Fatalf("compressed writer: %d wire bytes for %d logical", st.WireBytes, st.Bytes)
	}
	if pst := wp.Stats(); pst.WireBytes != pst.Bytes {
		t.Fatalf("plain writer: wire %d != logical %d", pst.WireBytes, pst.Bytes)
	}
	r, err := OpenDir(compDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, r)
	r.Close()
	if !reflect.DeepEqual(got, all) {
		t.Fatal("compressed directory replays differently")
	}
}

func TestRetainDeletesExpiredSegments(t *testing.T) {
	dir := t.TempDir()
	w, _, all := sealedDir(t, dir, 4, Config{Fsync: FsyncRotate})
	defer w.Close()

	sealedBefore := w.Sealed()
	// Sealed ages are 4, 3, 2 and 1 minutes; a 2.5-minute TTL expires
	// the two oldest sealed segments.
	res, err := w.Retain(2*time.Minute + 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments != 2 || res.Bytes != sealedBefore[0].Bytes+sealedBefore[1].Bytes {
		t.Fatalf("retained %d segments / %d bytes, want the 2 oldest", res.Segments, res.Bytes)
	}
	left := w.Sealed()
	if len(left) != 2 || left[0].Name != sealedBefore[2].Name {
		t.Fatalf("manifest after retention: %+v", left)
	}
	for _, info := range sealedBefore[:2] {
		if _, err := os.Stat(filepath.Join(dir, info.Name)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("expired segment %s still on disk (%v)", info.Name, err)
		}
	}
	if w.Stats().Sealed != 2 {
		t.Fatalf("stats still count %d sealed segments", w.Stats().Sealed)
	}

	// The directory still opens and replays the surviving suffix; the
	// active tail is never retention's business.
	r, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, r)
	r.Close()
	if want := all[2*40:]; !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after retention: %d actions, want %d", len(got), len(want))
	}

	// TTL 0 keeps everything.
	if res, err := w.Retain(0); err != nil || res.Segments != 0 {
		t.Fatalf("ttl 0 deleted %d segments (%v)", res.Segments, err)
	}
}

// TestCrashRecoveryTruncatesTornCompressedFrame is the compressed twin
// of TestCrashRecoveryTruncatesTornFrame: a writer with Compress on,
// killed mid-frame, must replay exactly the pre-crash prefix and
// Repair must truncate the torn compressed frame at the same clean
// boundary an uncompressed tail would use.
func TestCrashRecoveryTruncatesTornCompressedFrame(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Config{Dir: dir, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	var batches [][]engine.OfficeAction
	for i := 0; i < 5; i++ {
		batches = append(batches, mkBatch(i%2, float64(1+i*10), 40))
	}
	var all, intact []engine.OfficeAction
	for _, b := range batches {
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	for _, b := range batches[:len(batches)-1] {
		intact = append(intact, b...)
	}
	// No Close: the process "crashed". Cut into the last (compressed)
	// frame. The frame must really be compressed for the test to mean
	// anything.
	lastFrame, _, err := wire.AppendFrameCompressed(nil, wire.V1JSONL, batches[len(batches)-1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if lastFrame[3]&wire.FlagCompressed == 0 {
		t.Fatal("fixture batch did not compress; enlarge it")
	}
	name := w.Stats().Open
	path := filepath.Join(dir, name)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := int64(len(lastFrame)) / 2
	if err := os.Truncate(path, fi.Size()-cut); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDir(dir, Options{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, r)
	if !reflect.DeepEqual(got, intact) {
		t.Fatalf("replay after crash: %d actions, want the %d-action intact prefix", len(got), len(intact))
	}
	info, torn := r.Torn()
	if !torn || !info.Repaired || info.TornBytes <= 0 {
		t.Fatalf("torn compressed tail not reported/repaired: %+v (torn=%v)", info, torn)
	}
	if fi, err := os.Stat(info.Path); err != nil || fi.Size() != info.Offset {
		t.Fatalf("repair did not truncate to the boundary: size %d, want %d (%v)", fi.Size(), info.Offset, err)
	}
	r.Close()

	// Post-repair the directory reads clean and a fresh writer appends
	// compressed frames after the repaired boundary.
	w2, err := NewWriter(Config{Dir: dir, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	extra := mkBatch(1, 900, 40)
	if err := w2.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got = readAll(t, r2)
	r2.Close()
	want := append(append([]engine.OfficeAction(nil), intact...), extra...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-repair replay+append: %d actions, want %d", len(got), len(want))
	}
}

func TestAppendEncodedMatchesAppend(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	wa, err := NewWriter(Config{Dir: dirA})
	if err != nil {
		t.Fatal(err)
	}
	wb, err := NewWriter(Config{Dir: dirB})
	if err != nil {
		t.Fatal(err)
	}
	var frame []byte
	for i := 0; i < 5; i++ {
		b := mkBatch(i%2, float64(1+i*10), 8)
		if err := wa.Append(b); err != nil {
			t.Fatal(err)
		}
		frame, err = wire.AppendFrame(frame[:0], wire.V1JSONL, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := wb.AppendEncoded(frame, len(frame), b); err != nil {
			t.Fatal(err)
		}
	}
	if err := wa.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	sa, sb := wa.Stats(), wb.Stats()
	if sa.Frames != sb.Frames || sa.Bytes != sb.Bytes || sa.WireBytes != sb.WireBytes {
		t.Fatalf("stats diverge: %+v vs %+v", sa, sb)
	}
	ra, err := OpenDir(dirA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := OpenDir(dirB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ga, gb := readAll(t, ra), readAll(t, rb)
	ra.Close()
	rb.Close()
	if !reflect.DeepEqual(ga, gb) {
		t.Fatal("AppendEncoded directory replays differently from Append")
	}
	if err := wb.AppendEncoded([]byte("definitely not a frame"), 0, mkBatch(0, 1, 1)); err == nil {
		t.Fatal("AppendEncoded accepted junk on a closed writer") // closed + junk: either error is fine, nil is not
	}
}
