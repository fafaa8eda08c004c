// Package segment is the durable half of the action path: a
// crash-safe, append-only log of wire frames split across rotating
// segment files, with a reader that replays them after a restart.
//
// Layout of a segment directory:
//
//	segment-000000-000000000900.fwl   sealed
//	segment-000001-000000512500.fwl   sealed
//	segment-000002-000000988100.fwl   active (still growing)
//	MANIFEST.json                     sealed-segment index, replaced
//	                                  atomically (write-temp + rename)
//
// Each segment file is a plain concatenation of wire frames (package
// wire), named segment-<seq>-<firsttick>.fwl where <seq> is the
// writer's monotone segment counter and <firsttick> is the office-clock
// time of the segment's first action in integer milliseconds. The
// Writer seals a segment — flushes, optionally fsyncs, closes, and
// records it in the manifest — when the next frame would push it past
// Config.MaxSegmentBytes or the segment has been open longer than
// Config.MaxSegmentAge, and starts the next sequence number. A crash
// therefore loses at most the unflushed tail of the single active
// segment; everything sealed is durable (to the degree the fsync policy
// bought) and everything up to the last complete frame of the active
// segment is recovered by the Reader, which detects a torn final frame
// via the wire CRC and stops before it (or truncates it in place with
// Options.Repair).
package segment

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"time"

	"fadewich/internal/engine"
	"fadewich/internal/wire"
)

// ManifestName is the sealed-segment index file inside a segment
// directory. It is only ever replaced atomically.
const ManifestName = "MANIFEST.json"

// DefaultMaxSegmentBytes is the size-rotation threshold selected when
// Config.MaxSegmentBytes is zero.
const DefaultMaxSegmentBytes = 4 << 20

// segmentNameRe matches segment file names; capture 1 is the sequence
// number, capture 2 the first-action tick in milliseconds.
var segmentNameRe = regexp.MustCompile(`^segment-(\d+)-(\d+)\.fwl$`)

// FsyncPolicy selects how hard the Writer pushes frames to stable
// storage. Stronger policies survive worse crashes and cost more.
type FsyncPolicy int

const (
	// FsyncNever never calls fsync: buffers flush to the OS at rotation
	// and Close, and the OS decides when they reach disk. An OS crash
	// can lose sealed segments; a process crash cannot.
	FsyncNever FsyncPolicy = iota
	// FsyncRotate fsyncs each segment (and the manifest and directory)
	// when it is sealed. Sealed segments survive an OS crash; the active
	// segment's tail is still at risk.
	FsyncRotate
	// FsyncAlways additionally flushes and fsyncs after every frame.
	// At most the frame being written when the machine died is torn.
	FsyncAlways
)

// String returns the CLI spelling of the policy (never, rotate, always).
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncNever:
		return "never"
	case FsyncRotate:
		return "rotate"
	case FsyncAlways:
		return "always"
	default:
		return fmt.Sprintf("fsync(%d)", int(p))
	}
}

// ParseFsyncPolicy maps the CLI spellings back to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "never":
		return FsyncNever, nil
	case "rotate":
		return FsyncRotate, nil
	case "always":
		return FsyncAlways, nil
	default:
		return 0, fmt.Errorf("segment: unknown fsync policy %q (want never, rotate or always)", s)
	}
}

// Config parameterises a Writer.
type Config struct {
	// Dir is the segment directory, created if missing.
	Dir string
	// MaxSegmentBytes rotates the active segment before a frame would
	// push it past this size (0 selects DefaultMaxSegmentBytes). A
	// single frame larger than the limit still gets its own segment.
	MaxSegmentBytes int64
	// MaxSegmentAge rotates the active segment when it has been open at
	// least this long, so slow-but-steady streams still seal (and,
	// under FsyncRotate, persist) regularly. Age is evaluated when the
	// next frame arrives: a stream that stops entirely seals only at
	// Close (call Sync for idle durability). 0 disables age rotation.
	MaxSegmentAge time.Duration
	// Fsync is the durability policy. The zero value is FsyncNever.
	Fsync FsyncPolicy
	// Version is the wire codec frames are written under: 0 or
	// wire.V1JSONL, the only codec; anything else is wire.ErrVersion.
	Version wire.Version
	// Compress asks the encoder feeding the writer (stream.SegmentSink)
	// for FlagCompressed frames, deflated when the payload clears the
	// wire layer's threshold and actually shrinks (see
	// wire.AppendFrameCompressed). Frames are self-describing either
	// way, so a directory may mix compressed and plain frames across
	// writer generations — and within one, since small batches fall
	// back to plain frames.
	Compress bool
}

// Info describes one sealed segment — the manifest entry.
type Info struct {
	// Name is the file name within the directory.
	Name string `json:"name"`
	// Seq is the writer's segment counter.
	Seq uint64 `json:"seq"`
	// MinTime and MaxTime bound the office-clock times of the actions
	// inside, so readers can skip whole segments on time-range queries.
	MinTime float64 `json:"min_time"`
	MaxTime float64 `json:"max_time"`
	// Frames and Bytes are the sealed totals; Bytes is the on-disk file
	// size.
	Frames int   `json:"frames"`
	Bytes  int64 `json:"bytes"`
	// LogicalBytes is the size the segment's frames occupy with every
	// payload uncompressed — equal to Bytes when nothing is compressed.
	// The Bytes/LogicalBytes pair is what dashboards (and the cluster
	// e2e test) read the on-disk compression ratio from. Manifests from
	// before the compression layer lack the field; readers treat 0 as
	// "same as Bytes".
	LogicalBytes int64 `json:"logical_bytes,omitempty"`
	// SealedUnix is when the segment was sealed, in Unix seconds — the
	// clock TTL retention (Writer.Retain) runs on. 0 in older
	// manifests; retention falls back to the file's mtime then.
	SealedUnix int64 `json:"sealed_unix,omitempty"`
}

// manifest is the JSON shape of MANIFEST.json.
type manifest struct {
	Schema int    `json:"schema"`
	Sealed []Info `json:"sealed"`
}

// WriterStats snapshots a Writer's counters.
type WriterStats struct {
	// Sealed is the number of sealed segments in the directory
	// manifest: it starts at the manifest's length when the writer
	// opens, grows by one per seal, and Retain sets it to what is left.
	Sealed int
	// Open is the active segment's file name ("" when none).
	Open string
	// Frames and Bytes count everything appended, sealed or not. Bytes
	// is the logical count — what the frames occupy with payloads
	// uncompressed; WireBytes is what actually went to disk. The two are
	// equal without compression, and their ratio is the writer's
	// on-disk compression ratio.
	Frames    uint64
	Bytes     uint64
	WireBytes uint64
	// Syncs counts fsync calls on segment files.
	Syncs uint64
}

// Writer appends batches to a rotating segment log. It is not safe for
// concurrent use — stream.SegmentSink adds the locking the sink
// contract needs.
type Writer struct {
	cfg     Config
	nextSeq uint64

	f        *os.File
	openedAt time.Time
	cur      Info

	man    manifest
	stats  WriterStats
	closed bool

	// now is the clock used for age rotation; tests pin it.
	now func() time.Time
}

// NewWriter opens (creating if needed) a segment directory for append.
// A directory with existing segments is continued: the writer starts a
// fresh segment at the next unused sequence number and extends the
// manifest, never reopening old files — after a crash the previous
// active segment simply stays unsealed, and the Reader recovers its
// intact prefix.
func NewWriter(cfg Config) (*Writer, error) {
	if cfg.Dir == "" {
		return nil, errors.New("segment: empty directory")
	}
	if cfg.MaxSegmentBytes == 0 {
		cfg.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	if cfg.MaxSegmentBytes < 0 {
		return nil, fmt.Errorf("segment: negative segment size %d", cfg.MaxSegmentBytes)
	}
	if cfg.MaxSegmentAge < 0 {
		return nil, fmt.Errorf("segment: negative segment age %v", cfg.MaxSegmentAge)
	}
	if cfg.Version != 0 && cfg.Version != wire.V1JSONL {
		return nil, fmt.Errorf("%w %d", wire.ErrVersion, uint8(cfg.Version))
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	w := &Writer{cfg: cfg, now: time.Now}
	ents, err := scanDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if len(ents) > 0 {
		w.nextSeq = ents[len(ents)-1].seq + 1
	}
	if man, err := loadManifest(cfg.Dir); err != nil {
		return nil, err
	} else if man != nil {
		w.man = *man
		w.stats.Sealed = len(man.Sealed)
	}
	return w, nil
}

// AppendEncoded writes one already-encoded wire frame carrying the
// given batch, rotating first if the active segment is full or too
// old: the dispatch cycle encodes a frame once and the segment sink
// appends those exact bytes. The frame must be one complete frame; the
// batch (used for the manifest's time bounds) must be what the frame
// decodes to. An empty batch is ignored (a segment is named after its
// first action, and there is nothing to replay in an empty frame).
// logical is the frame's uncompressed size (pass len(frame) for a
// plain frame).
func (w *Writer) AppendEncoded(frame []byte, logical int, batch []engine.OfficeAction) error {
	if w.closed {
		return errors.New("segment: writer closed")
	}
	if len(batch) == 0 {
		return nil
	}
	if len(frame) < wire.Overhead || frame[0] != wire.Magic[0] || frame[1] != wire.Magic[1] {
		return errors.New("segment: AppendEncoded: not a wire frame")
	}
	if logical <= 0 {
		logical = len(frame)
	}
	return w.writeFrame(frame, logical, batch)
}

// writeFrame appends one encoded frame: rotate if due, open if needed,
// write, account.
func (w *Writer) writeFrame(frame []byte, logical int, batch []engine.OfficeAction) error {
	if w.f != nil && w.rotateDue(int64(len(frame))) {
		if err := w.seal(); err != nil {
			return err
		}
	}
	if w.f == nil {
		if err := w.open(batch[0].Action.Time); err != nil {
			return err
		}
	}
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("segment: %s: %w", w.cur.Name, err)
	}
	w.cur.Frames++
	w.cur.Bytes += int64(len(frame))
	w.cur.LogicalBytes += int64(logical)
	for _, a := range batch {
		if a.Action.Time < w.cur.MinTime {
			w.cur.MinTime = a.Action.Time
		}
		if a.Action.Time > w.cur.MaxTime {
			w.cur.MaxTime = a.Action.Time
		}
	}
	w.stats.Frames++
	w.stats.Bytes += uint64(logical)
	w.stats.WireBytes += uint64(len(frame))
	if w.cfg.Fsync == FsyncAlways {
		if err := w.sync(); err != nil {
			return err
		}
	}
	return nil
}

// rotateDue reports whether the next frame of frameBytes must start a
// fresh segment.
func (w *Writer) rotateDue(frameBytes int64) bool {
	if w.cur.Frames == 0 {
		return false // a frame larger than the limit still gets a segment
	}
	if w.cur.Bytes+frameBytes > w.cfg.MaxSegmentBytes {
		return true
	}
	return w.cfg.MaxSegmentAge > 0 && w.now().Sub(w.openedAt) >= w.cfg.MaxSegmentAge
}

// open starts the next segment, named after the first action's time.
func (w *Writer) open(firstTime float64) error {
	millis := int64(math.Round(firstTime * 1000))
	if millis < 0 {
		millis = 0
	}
	name := fmt.Sprintf("segment-%06d-%012d.fwl", w.nextSeq, millis)
	f, err := os.OpenFile(filepath.Join(w.cfg.Dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	w.f = f
	w.openedAt = w.now()
	w.cur = Info{Name: name, Seq: w.nextSeq, MinTime: math.Inf(1), MaxTime: math.Inf(-1)}
	w.nextSeq++
	return nil
}

// sync fsyncs the active segment file.
func (w *Writer) sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("segment: %s: sync: %w", w.cur.Name, err)
	}
	w.stats.Syncs++
	return nil
}

// seal finishes the active segment: flush, fsync per policy, close,
// record it in the manifest, and replace the manifest atomically.
func (w *Writer) seal() error {
	if w.cfg.Fsync >= FsyncRotate {
		if err := w.sync(); err != nil {
			return err
		}
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("segment: %s: close: %w", w.cur.Name, err)
	}
	w.f = nil
	w.cur.SealedUnix = w.now().Unix()
	w.man.Sealed = append(w.man.Sealed, w.cur)
	w.stats.Sealed++
	if err := w.writeManifest(); err != nil {
		return err
	}
	if w.cfg.Fsync >= FsyncRotate {
		if err := syncDir(w.cfg.Dir); err != nil {
			return err
		}
	}
	w.cur = Info{}
	return nil
}

// writeManifest replaces MANIFEST.json atomically: the new index is
// written to a temporary file and renamed into place, so a reader (or a
// crash) only ever observes the old manifest or the new one, never a
// partial write.
func (w *Writer) writeManifest() error {
	w.man.Schema = 1
	data, err := marshalManifest(&w.man)
	if err != nil {
		return err
	}
	tmp := filepath.Join(w.cfg.Dir, ManifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("segment: manifest: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("segment: manifest: %w", err)
	}
	if w.cfg.Fsync >= FsyncRotate {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("segment: manifest: sync: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("segment: manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(w.cfg.Dir, ManifestName)); err != nil {
		return fmt.Errorf("segment: manifest: %w", err)
	}
	return nil
}

// Sync flushes and fsyncs the active segment, regardless of policy.
func (w *Writer) Sync() error {
	if w.closed {
		return errors.New("segment: writer closed")
	}
	if w.f == nil {
		return nil
	}
	return w.sync()
}

// Close seals the active segment and writes the final manifest.
// Idempotent.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f == nil {
		return nil
	}
	return w.seal()
}

// Stats snapshots the writer's counters.
func (w *Writer) Stats() WriterStats {
	st := w.stats
	st.Open = w.cur.Name
	return st
}

// Sealed returns a copy of the manifest's sealed-segment index,
// including segments sealed by earlier writer generations in the same
// directory — the per-segment detail behind the Stats.Sealed count,
// giving a metrics endpoint the directory-wide frame/byte totals.
func (w *Writer) Sealed() []Info {
	out := make([]Info, len(w.man.Sealed))
	copy(out, w.man.Sealed)
	return out
}

// syncDir fsyncs a directory so renames and new files inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("segment: sync %s: %w", dir, err)
	}
	return nil
}

// dirEntry is one segment file found on disk.
type dirEntry struct {
	name string
	seq  uint64
}

// scanDir lists the segment files of dir in ascending sequence order.
func scanDir(dir string) ([]dirEntry, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	var out []dirEntry
	for _, e := range ents {
		m := segmentNameRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		seq, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("segment: %s: %w", e.Name(), err)
		}
		out = append(out, dirEntry{name: e.Name(), seq: seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	for i := 1; i < len(out); i++ {
		if out[i].seq == out[i-1].seq {
			return nil, fmt.Errorf("segment: duplicate sequence number %d (%s, %s)", out[i].seq, out[i-1].name, out[i].name)
		}
	}
	return out, nil
}

// marshalManifest renders a manifest as the MANIFEST.json bytes.
func marshalManifest(man *manifest) ([]byte, error) {
	man.Schema = 1
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		panic(err) // plain scalar fields; cannot fail
	}
	return append(data, '\n'), nil
}

// loadManifest reads MANIFEST.json, returning nil when there is none
// (a directory whose writer never rotated or closed).
func loadManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("segment: manifest: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("segment: manifest: %w", err)
	}
	return &man, nil
}
