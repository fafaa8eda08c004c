package segment

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fadewich/internal/engine"
	"fadewich/internal/wire"
)

// ErrTornMidLog is returned (wrapped) when a segment that is not the
// last one ends in a torn or corrupt frame — the crashed tail of an
// earlier writer generation. Open the directory with Options.Repair to
// truncate it and read on, or keep the error and investigate.
var ErrTornMidLog = errors.New("segment: torn frame before the last segment")

// Options filter and configure a Reader. The zero value replays
// everything and leaves torn tails in place.
type Options struct {
	// FromTime / ToTime bound the office-clock Time of returned actions
	// (inclusive). Zero means unbounded; action times are strictly
	// positive (the clock starts one tick after zero). Sealed segments
	// whose manifest MaxTime falls before FromTime are skipped whole.
	FromTime float64
	ToTime   float64
	// Offices, when non-empty, keeps only actions of these office IDs.
	Offices []int
	// Repair truncates a torn final frame in place (os.Truncate to the
	// last clean frame boundary) instead of just stopping before it.
	// Never combine with a writer still appending to the directory: a
	// torn tail may be a frame in flight.
	Repair bool
}

// TornInfo describes a torn or corrupt tail the Reader stopped before.
type TornInfo struct {
	// Path is the affected segment file.
	Path string
	// Offset is the last clean frame boundary — the truncation point.
	Offset int64
	// TornBytes is how many bytes past the boundary the file held.
	TornBytes int64
	// Err is the wire decode error that classified the tail.
	Err error
	// Repaired reports whether the file was truncated at Offset.
	Repaired bool
}

// Reader replays a segment directory frame by frame, across segment
// boundaries, in write order. It tolerates a growing directory: at the
// end of the known data it rescans for new segments and new bytes in
// the last one, so a caller may poll Next after io.EOF to follow a live
// writer. Not safe for concurrent use.
type Reader struct {
	dir string
	opt Options

	offices map[int]bool
	sealed  map[string]Info
	segs    []dirEntry

	idx int   // current segment index
	off int64 // resume offset within segs[idx]
	f   *os.File
	d   *wire.Decoder

	torn *TornInfo
}

// OpenDir opens a segment directory for replay. Segments named by the
// manifest but missing on disk are an error; segment files not (yet) in
// the manifest — the active tail, or the unsealed leftovers of a crash
// — are replayed after the sealed ones, in sequence order.
func OpenDir(dir string, opt Options) (*Reader, error) {
	if fi, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	} else if !fi.IsDir() {
		return nil, fmt.Errorf("segment: %s is not a directory", dir)
	}
	r := &Reader{dir: dir, opt: opt}
	if len(opt.Offices) > 0 {
		r.offices = make(map[int]bool, len(opt.Offices))
		for _, o := range opt.Offices {
			r.offices[o] = true
		}
	}
	if err := r.rescan(); err != nil {
		return nil, err
	}
	return r, nil
}

// rescan refreshes the segment list and manifest. New files append to
// the known list; known files never move (the writer's sequence numbers
// are monotone).
func (r *Reader) rescan() error {
	ents, err := scanDir(r.dir)
	if err != nil {
		return err
	}
	man, err := loadManifest(r.dir)
	if err != nil {
		return err
	}
	r.sealed = make(map[string]Info)
	if man != nil {
		for _, info := range man.Sealed {
			r.sealed[info.Name] = info
		}
	}
	byName := make(map[string]bool, len(ents))
	for _, e := range ents {
		byName[e.name] = true
	}
	for name := range r.sealed {
		if !byName[name] {
			return fmt.Errorf("segment: manifest names %s but the file is missing", name)
		}
	}
	known := len(r.segs)
	for _, e := range ents {
		if known > 0 && e.seq <= r.segs[known-1].seq {
			continue
		}
		r.segs = append(r.segs, e)
	}
	return nil
}

// keep applies the office and time-range filters.
func (r *Reader) keep(a engine.OfficeAction) bool {
	if r.offices != nil && !r.offices[a.Office] {
		return false
	}
	if r.opt.FromTime > 0 && a.Action.Time < r.opt.FromTime {
		return false
	}
	if r.opt.ToTime > 0 && a.Action.Time > r.opt.ToTime {
		return false
	}
	return true
}

// closeFile drops the open segment file and decoder.
func (r *Reader) closeFile() {
	if r.f != nil {
		r.f.Close()
		r.f, r.d = nil, nil
	}
}

// Next returns the surviving actions of the next frame (frames whose
// actions are all filtered out are skipped). At the end of the
// currently-written data it returns io.EOF; polling Next again later
// picks up frames appended in the meantime, so io.EOF means "caught
// up", not "finished" — a segment log has no natural end.
//
// A torn or corrupt tail on the last segment stops replay cleanly
// before it: Next returns io.EOF and Torn reports the cut (with
// Options.Repair the file is truncated at the boundary). The same
// damage before the last segment is a hard error (ErrTornMidLog)
// unless Repair is set, because silently resuming at the next segment
// would hide a hole in the middle of the stream.
func (r *Reader) Next() ([]engine.OfficeAction, error) {
	rescanned := false
	for {
		if r.idx >= len(r.segs) {
			if rescanned {
				return nil, io.EOF
			}
			rescanned = true
			if err := r.rescan(); err != nil {
				return nil, err
			}
			continue
		}
		if r.f == nil {
			e := r.segs[r.idx]
			if r.off == 0 && r.opt.FromTime > 0 {
				if info, ok := r.sealed[e.name]; ok && info.MaxTime < r.opt.FromTime {
					r.idx++
					continue
				}
			}
			f, err := os.Open(filepath.Join(r.dir, e.name))
			if err != nil {
				return nil, fmt.Errorf("segment: %w", err)
			}
			if r.off > 0 {
				if _, err := f.Seek(r.off, io.SeekStart); err != nil {
					f.Close()
					return nil, fmt.Errorf("segment: %s: %w", e.name, err)
				}
			}
			r.f, r.d = f, wire.NewDecoder(f)
		}
		acts, err := r.d.Decode()
		if err == nil {
			kept := acts[:0]
			for _, a := range acts {
				if r.keep(a) {
					kept = append(kept, a)
				}
			}
			if len(kept) == 0 {
				continue
			}
			return kept, nil
		}
		boundary := r.off + r.d.Offset()
		if err == io.EOF {
			// Clean end of this segment's known bytes.
			r.closeFile()
			if r.idx < len(r.segs)-1 {
				r.idx, r.off = r.idx+1, 0
				continue
			}
			// Last segment: remember the resume point, look once for new
			// data (growth reopens this file at the boundary; a fresh
			// rescan may reveal newer segments), then report caught-up.
			r.off = boundary
			if rescanned {
				return nil, io.EOF
			}
			rescanned = true
			if err := r.rescan(); err != nil {
				return nil, err
			}
			continue
		}
		if errors.Is(err, wire.ErrTorn) || errors.Is(err, wire.ErrCorrupt) {
			if r.idx == len(r.segs)-1 && !rescanned {
				// The tear may just be a frame in flight from a live
				// writer — possibly one it completed (and rotated past)
				// while we were reading. Rescan and re-read from the
				// boundary once before judging: a completed frame
				// decodes on the retry, a still-torn one is genuine.
				rescanned = true
				r.closeFile()
				r.off = boundary
				if err := r.rescan(); err != nil {
					return nil, err
				}
				continue
			}
			return r.handleTorn(boundary, err)
		}
		// Unknown codec version (wire.ErrVersion, a frame from a build
		// with another codec) or I/O failure: hard error, and never a
		// truncation, Repair or not.
		r.closeFile()
		return nil, fmt.Errorf("segment: %s: %w", r.segs[r.idx].name, err)
	}
}

// handleTorn deals with a confirmed torn or corrupt frame at the read
// position: record it, optionally truncate, and either stop cleanly
// (tail of the log), continue with the next segment (repaired mid-log
// tear), or fail (unrepaired mid-log tear).
func (r *Reader) handleTorn(boundary int64, decodeErr error) ([]engine.OfficeAction, error) {
	e := r.segs[r.idx]
	path := filepath.Join(r.dir, e.name)
	info := &TornInfo{Path: path, Offset: boundary, Err: decodeErr}
	if fi, err := os.Stat(path); err == nil {
		info.TornBytes = fi.Size() - boundary
	}
	r.closeFile()
	if r.opt.Repair {
		if err := os.Truncate(path, boundary); err != nil {
			return nil, fmt.Errorf("segment: repair %s: %w", e.name, err)
		}
		info.Repaired = true
	}
	r.torn = info
	if r.idx == len(r.segs)-1 {
		r.off = boundary
		return nil, io.EOF
	}
	if !r.opt.Repair {
		return nil, fmt.Errorf("%w: %s at offset %d (%v)", ErrTornMidLog, e.name, boundary, decodeErr)
	}
	r.idx, r.off = r.idx+1, 0
	return r.Next()
}

// Torn returns the most recent torn-tail record, if any.
func (r *Reader) Torn() (TornInfo, bool) {
	if r.torn == nil {
		return TornInfo{}, false
	}
	return *r.torn, true
}

// Close releases the open segment file. The Reader is done after this.
func (r *Reader) Close() error {
	r.closeFile()
	return nil
}
