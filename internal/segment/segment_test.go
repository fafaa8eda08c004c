package segment

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"fadewich/internal/control"
	"fadewich/internal/core"
	"fadewich/internal/engine"
	"fadewich/internal/wire"
)

// mkBatch builds n actions for one office starting at baseTime, spaced
// 0.1 s apart.
func mkBatch(office int, baseTime float64, n int) []engine.OfficeAction {
	out := make([]engine.OfficeAction, n)
	for i := range out {
		out[i] = engine.OfficeAction{
			Office: office,
			Action: core.Action{
				Time:        baseTime + float64(i)*0.1,
				Type:        core.ActionDeauthenticate,
				Workstation: i % 3,
				Cause:       control.CauseTimeout,
			},
		}
	}
	return out
}

// appendBatch encodes batch as the writer's configured frame variant
// and appends it, as stream.SegmentSink does.
func appendBatch(w *Writer, batch []engine.OfficeAction) error {
	var (
		frame   []byte
		logical int
		err     error
	)
	if w.cfg.Compress {
		frame, logical, err = wire.AppendFrameCompressed(nil, wire.V1JSONL, batch, 0)
	} else {
		frame, err = wire.AppendFrame(nil, wire.V1JSONL, batch)
		logical = len(frame)
	}
	if err != nil {
		return err
	}
	return w.AppendEncoded(frame, logical, batch)
}

// readAll drains a Reader.
func readAll(t *testing.T, r *Reader) []engine.OfficeAction {
	t.Helper()
	var out []engine.OfficeAction
	for {
		acts, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, acts...)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	if _, err := NewWriter(Config{Dir: t.TempDir(), Version: 2}); !errors.Is(err, wire.ErrVersion) {
		t.Fatalf("codec 2: got %v, want wire.ErrVersion", err)
	}
	// 0 selects the only codec, V1JSONL.
	for _, v := range []wire.Version{0, wire.V1JSONL} {
		dir := t.TempDir()
		w, err := NewWriter(Config{Dir: dir, Version: v})
		if err != nil {
			t.Fatal(err)
		}
		var want []engine.OfficeAction
		for i := 0; i < 7; i++ {
			b := mkBatch(i%3, float64(1+i*10), 5)
			if err := appendBatch(w, b); err != nil {
				t.Fatal(err)
			}
			want = append(want, b...)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("second close: %v", err)
		}
		r, err := OpenDir(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := readAll(t, r)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: replay differs: %d vs %d actions", v, len(got), len(want))
		}
		if _, torn := r.Torn(); torn {
			t.Fatal("clean log reports a torn tail")
		}
		r.Close()
	}
}

func TestRotationBySizeAndManifest(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Config{Dir: dir, MaxSegmentBytes: 600, Fsync: FsyncRotate})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := appendBatch(w, mkBatch(0, float64(1+i), 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Sealed < 2 {
		t.Fatalf("expected rotation, got %d sealed segments", st.Sealed)
	}
	if st.Frames != 10 {
		t.Fatalf("stats count %d frames, want 10", st.Frames)
	}
	man, err := loadManifest(dir)
	if err != nil || man == nil {
		t.Fatalf("manifest: %v (nil=%v)", err, man == nil)
	}
	if len(man.Sealed) != st.Sealed {
		t.Fatalf("manifest seals %d segments, stats say %d", len(man.Sealed), st.Sealed)
	}
	namePat := regexp.MustCompile(`^segment-\d{6}-\d{12}\.fwl$`)
	var prevSeq uint64
	for i, info := range man.Sealed {
		if !namePat.MatchString(info.Name) {
			t.Fatalf("segment name %q does not match segment-<seq>-<firsttick>.fwl", info.Name)
		}
		if i > 0 && info.Seq <= prevSeq {
			t.Fatalf("manifest seqs not ascending: %d after %d", info.Seq, prevSeq)
		}
		prevSeq = info.Seq
		if info.MinTime > info.MaxTime || info.Frames == 0 || info.Bytes == 0 {
			t.Fatalf("bad manifest entry %+v", info)
		}
		fi, err := os.Stat(filepath.Join(dir, info.Name))
		if err != nil || fi.Size() != info.Bytes {
			t.Fatalf("sealed segment %s: stat %v, size %d vs manifest %d", info.Name, err, fi.Size(), info.Bytes)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName+".tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("temporary manifest left behind")
	}
}

func TestRotationByAge(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Config{Dir: dir, MaxSegmentAge: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(1000, 0)
	w.now = func() time.Time { return clock }
	if err := appendBatch(w, mkBatch(0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(30 * time.Second)
	if err := appendBatch(w, mkBatch(0, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Sealed; got != 0 {
		t.Fatalf("rotated after 30s with a 1m age limit (%d sealed)", got)
	}
	clock = clock.Add(31 * time.Second)
	if err := appendBatch(w, mkBatch(0, 3, 2)); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Sealed; got != 1 {
		t.Fatalf("age rotation did not fire (%d sealed)", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFsyncAlways(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Config{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := appendBatch(w, mkBatch(0, float64(i+1), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Stats().Syncs < 3 {
		t.Fatalf("FsyncAlways synced %d times for 3 frames", w.Stats().Syncs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// crashDir builds a directory whose last (unsealed) segment ends in a
// torn frame: frames are appended without Close — the writer just
// stops, like a killed process — and the file is then cut cutBytes
// short of the last frame boundary. It returns the directory, the full
// action stream, and the actions of the surviving whole frames.
func crashDir(t *testing.T, batches [][]engine.OfficeAction, cutBytes int64) (dir string, all, intact []engine.OfficeAction) {
	t.Helper()
	dir = t.TempDir()
	w, err := NewWriter(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := appendBatch(w, b); err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	// No Close: the process "crashed". Cut the active segment mid-frame.
	name := w.Stats().Open
	path := filepath.Join(dir, name)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	lastFrame, err := wire.AppendFrame(nil, wire.V1JSONL, batches[len(batches)-1])
	if err != nil {
		t.Fatal(err)
	}
	if cutBytes >= int64(len(lastFrame)) {
		t.Fatalf("cut %d bytes would erase the whole %d-byte last frame", cutBytes, len(lastFrame))
	}
	if err := os.Truncate(path, fi.Size()-cutBytes); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:len(batches)-1] {
		intact = append(intact, b...)
	}
	return dir, all, intact
}

// TestCrashRecoveryTruncatesTornFrame is the crash-recovery
// acceptance: a segment writer killed mid-frame must replay exactly the
// pre-crash prefix, byte for byte on the wire, and Repair must truncate
// the torn frame in place.
func TestCrashRecoveryTruncatesTornFrame(t *testing.T) {
	var batches [][]engine.OfficeAction
	for i := 0; i < 6; i++ {
		batches = append(batches, mkBatch(i%2, float64(1+i*5), 4))
	}
	dir, all, intact := crashDir(t, batches, 7)

	r, err := OpenDir(dir, Options{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, r)
	if !reflect.DeepEqual(got, intact) {
		t.Fatalf("replay after crash: %d actions, want the %d-action intact prefix", len(got), len(intact))
	}
	// Byte-for-byte: the replayed stream re-encodes to an exact prefix
	// of the full stream's wire encoding.
	fullJSONL := wire.AppendJSONL(nil, all)
	gotJSONL := wire.AppendJSONL(nil, got)
	if !bytes.HasPrefix(fullJSONL, gotJSONL) {
		t.Fatal("replayed JSONL is not a byte prefix of the pre-crash stream")
	}
	info, torn := r.Torn()
	if !torn || !info.Repaired || info.TornBytes <= 0 {
		t.Fatalf("torn tail not reported/repaired: %+v (torn=%v)", info, torn)
	}
	if fi, err := os.Stat(info.Path); err != nil || fi.Size() != info.Offset {
		t.Fatalf("repair did not truncate to the boundary: size %d, want %d (%v)", fi.Size(), info.Offset, err)
	}
	r.Close()

	// After repair the directory reads clean.
	r2, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again := readAll(t, r2); !reflect.DeepEqual(again, intact) {
		t.Fatal("post-repair replay differs")
	}
	if _, torn := r2.Torn(); torn {
		t.Fatal("post-repair replay still reports a torn tail")
	}
	r2.Close()
}

// TestCrashWithoutRepairStopsBeforeTornTail checks the read-only
// default: the torn tail is reported but the file is left alone.
func TestCrashWithoutRepairStopsBeforeTornTail(t *testing.T) {
	var batches [][]engine.OfficeAction
	for i := 0; i < 3; i++ {
		batches = append(batches, mkBatch(0, float64(1+i), 2))
	}
	dir, _, intact := crashDir(t, batches, 3)
	r, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, r)
	if !reflect.DeepEqual(got, intact) {
		t.Fatalf("replay: %d actions, want %d", len(got), len(intact))
	}
	info, torn := r.Torn()
	if !torn || info.Repaired {
		t.Fatalf("expected an unrepaired torn record, got %+v (torn=%v)", info, torn)
	}
	if fi, err := os.Stat(info.Path); err != nil || fi.Size() != info.Offset+info.TornBytes {
		t.Fatalf("read-only replay modified the file: %v size %d", err, fi.Size())
	}
	r.Close()
}

// TestTornMidLog covers a crashed writer generation followed by a
// restart: the old tail is torn, a newer segment exists. Without Repair
// that is a hard error; with Repair the reader truncates and stitches
// the stream back together.
func TestTornMidLog(t *testing.T) {
	dir := t.TempDir()
	w1, err := NewWriter(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := mkBatch(0, 1, 3), mkBatch(0, 2, 3)
	if err := appendBatch(w1, b1); err != nil {
		t.Fatal(err)
	}
	if err := appendBatch(w1, b2); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close. Tear the tail frame.
	path := filepath.Join(dir, w1.Stats().Open)
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	// Restart: a new writer generation appends a fresh segment.
	w2, err := NewWriter(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b3 := mkBatch(0, 3, 3)
	if err := appendBatch(w2, b3); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var readErr error
	for {
		if _, readErr = r.Next(); readErr != nil {
			break
		}
	}
	if !errors.Is(readErr, ErrTornMidLog) {
		t.Fatalf("mid-log tear surfaced as %v, want ErrTornMidLog", readErr)
	}
	r.Close()

	r2, err := OpenDir(dir, Options{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]engine.OfficeAction(nil), b1...), b3...)
	if got := readAll(t, r2); !reflect.DeepEqual(got, want) {
		t.Fatalf("repaired mid-log replay: %d actions, want %d (pre-crash prefix + restart)", len(got), len(want))
	}
	r2.Close()
}

func TestFilteredCursors(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Config{Dir: dir, MaxSegmentBytes: 400})
	if err != nil {
		t.Fatal(err)
	}
	var all []engine.OfficeAction
	for i := 0; i < 12; i++ {
		b := mkBatch(i%3, float64(1+i*10), 2)
		if err := appendBatch(w, b); err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	filter := func(opt Options) []engine.OfficeAction {
		t.Helper()
		r, err := OpenDir(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		return readAll(t, r)
	}
	manual := func(pred func(engine.OfficeAction) bool) []engine.OfficeAction {
		var out []engine.OfficeAction
		for _, a := range all {
			if pred(a) {
				out = append(out, a)
			}
		}
		return out
	}

	got := filter(Options{Offices: []int{1}})
	want := manual(func(a engine.OfficeAction) bool { return a.Office == 1 })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("office filter: %d actions, want %d", len(got), len(want))
	}
	got = filter(Options{FromTime: 41, ToTime: 80})
	want = manual(func(a engine.OfficeAction) bool { return a.Action.Time >= 41 && a.Action.Time <= 80 })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("time filter: %d actions, want %d", len(got), len(want))
	}
	got = filter(Options{Offices: []int{0, 2}, FromTime: 30})
	want = manual(func(a engine.OfficeAction) bool { return a.Office != 1 && a.Action.Time >= 30 })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("combined filter: %d actions, want %d", len(got), len(want))
	}
}

// TestManifestSkipsSealedSegments proves the FromTime fast path really
// skips files: an early sealed segment is overwritten with garbage, and
// a FromTime query past its MaxTime still succeeds because the reader
// never opens it.
func TestManifestSkipsSealedSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Config{Dir: dir, MaxSegmentBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := appendBatch(w, mkBatch(0, float64(1+i*10), 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(dir)
	if err != nil || man == nil || len(man.Sealed) < 3 {
		t.Fatalf("need at least 3 sealed segments, have %+v (%v)", man, err)
	}
	first := man.Sealed[0]
	if err := os.WriteFile(filepath.Join(dir, first.Name), []byte("garbage, not frames"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDir(dir, Options{FromTime: first.MaxTime + 1})
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, r)
	if len(got) == 0 {
		t.Fatal("skip query returned nothing")
	}
	for _, a := range got {
		if a.Action.Time < first.MaxTime+1 {
			t.Fatalf("action at %v leaked through the FromTime filter", a.Action.Time)
		}
	}
	r.Close()
}

// TestFollowPicksUpNewData polls the reader like fadewich-tail -follow:
// new frames in the active segment and whole new segments appear across
// io.EOF boundaries.
func TestFollowPicksUpNewData(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Config{Dir: dir, MaxSegmentBytes: 250})
	if err != nil {
		t.Fatal(err)
	}
	b1 := mkBatch(0, 1, 2)
	if err := appendBatch(w, b1); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, r); !reflect.DeepEqual(got, b1) {
		t.Fatalf("first poll read %d actions, want %d", len(got), len(b1))
	}
	// Same segment grows.
	b2 := mkBatch(0, 2, 1)
	if err := appendBatch(w, b2); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, r); !reflect.DeepEqual(got, b2) {
		t.Fatalf("second poll read %d actions, want %d", len(got), len(b2))
	}
	// Force a rotation into a brand-new segment.
	b3 := mkBatch(0, 3, 6)
	if err := appendBatch(w, b3); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Stats().Sealed < 2 {
		t.Fatalf("rotation did not happen (%d sealed)", w.Stats().Sealed)
	}
	if got := readAll(t, r); !reflect.DeepEqual(got, b3) {
		t.Fatalf("third poll read %d actions, want %d", len(got), len(b3))
	}
	r.Close()
}

func TestOpenDirEmptyAndMissing(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("empty dir Next returned %v, want io.EOF", err)
	}
	r.Close()
	if _, err := OpenDir(filepath.Join(dir, "nope"), Options{}); err == nil {
		t.Fatal("missing directory opened")
	}
}

func TestManifestNamesMissingFile(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Config{Dir: dir, MaxSegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := appendBatch(w, mkBatch(0, float64(i+1), 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	man, _ := loadManifest(dir)
	if err := os.Remove(filepath.Join(dir, man.Sealed[0].Name)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir, Options{}); err == nil {
		t.Fatal("manifest naming a missing segment opened cleanly")
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncNever, FsyncRotate, FsyncAlways} {
		got, err := ParseFsyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseFsyncPolicy("bogus"); err == nil {
		t.Fatal("unknown policy parsed")
	}
}

// TestWriterSealedAccessor checks that Sealed() mirrors the on-disk
// manifest, and that a second writer generation continuing the same
// directory reports the inherited seals even though its own Stats
// counter starts at zero.
func TestWriterSealedAccessor(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Config{Dir: dir, MaxSegmentBytes: 600})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := appendBatch(w, mkBatch(0, float64(1+i), 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(dir)
	if err != nil || man == nil {
		t.Fatalf("manifest: %v (nil=%v)", err, man == nil)
	}
	if got := w.Sealed(); !reflect.DeepEqual(got, man.Sealed) {
		t.Fatalf("Sealed() diverges from the manifest:\ngot  %+v\nwant %+v", got, man.Sealed)
	}
	got := w.Sealed()
	got[0].Frames = -1
	if w.Sealed()[0].Frames == -1 {
		t.Fatal("Sealed() returned the writer's internal slice, not a copy")
	}

	w2, err := NewWriter(Config{Dir: dir, MaxSegmentBytes: 600})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := len(w2.Sealed()); got != len(man.Sealed) || got != w2.Stats().Sealed {
		t.Fatalf("fresh generation sees %d inherited seals (stats %d), want %d",
			got, w2.Stats().Sealed, len(man.Sealed))
	}
}

// TestManifestWithCompactedFieldReplays keeps directories written by
// builds that had a segment compactor readable: their manifest entries
// carry "compacted":true, which this build no longer knows, and the
// directory must still open, replay and take further appends.
func TestManifestWithCompactedFieldReplays(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Config{Dir: dir, MaxSegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want []engine.OfficeAction
	for i := 0; i < 3; i++ {
		b := mkBatch(i, float64(1+i*10), 4)
		if err := appendBatch(w, b); err != nil {
			t.Fatal(err)
		}
		want = append(want, b...)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := regexp.MustCompile(`"frames":`).ReplaceAll(data, []byte(`"compacted": true, "frames":`))
	if n := bytes.Count(old, []byte(`"compacted": true`)); n != 3 {
		t.Fatalf("fixture manifest marks %d entries compacted, want 3", n)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, r)
	r.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay of a compacted-era manifest: %d actions, want %d", len(got), len(want))
	}
	w, err = NewWriter(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(w.Sealed()); n != 3 {
		t.Fatalf("continued writer sees %d sealed segments, want 3", n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
