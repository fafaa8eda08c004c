package segment

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// RetainResult reports one retention pass.
type RetainResult struct {
	// Segments is how many expired segments were deleted.
	Segments int
	// Bytes is their on-disk size.
	Bytes int64
}

// sealedAt returns when a sealed segment was sealed: the manifest's
// SealedUnix when present, the file's mtime for manifests from before
// the field existed.
func (w *Writer) sealedAt(info Info) time.Time {
	if info.SealedUnix != 0 {
		return time.Unix(info.SealedUnix, 0)
	}
	if fi, err := os.Stat(filepath.Join(w.cfg.Dir, info.Name)); err == nil {
		return fi.ModTime()
	}
	// Missing or unreadable file: treat it as brand new so the TTL
	// skips it; the Reader reports the missing file.
	return w.now()
}

// Retain deletes sealed segments sealed longer than ttl ago — TTL
// retention, the bound on a segment directory's disk use: manifest
// entries first (one atomic manifest write), then the files. The order
// matters: the Reader hard-errors on a manifest naming a missing file,
// while an unmanifested leftover file is merely replayed as an unsealed
// tail, so a crash between the manifest write and the unlink is benign.
// The active segment is never touched. ttl <= 0 keeps everything. Like
// every Writer method it is not safe to call concurrently with Append
// or Close.
func (w *Writer) Retain(ttl time.Duration) (RetainResult, error) {
	var res RetainResult
	if w.closed {
		return res, errors.New("segment: writer closed")
	}
	if ttl <= 0 {
		return res, nil
	}
	cutoff := w.now().Add(-ttl)
	var keep, drop []Info
	for _, info := range w.man.Sealed {
		if w.sealedAt(info).After(cutoff) {
			keep = append(keep, info)
		} else {
			drop = append(drop, info)
		}
	}
	if len(drop) == 0 {
		return res, nil
	}
	w.man.Sealed = keep
	w.stats.Sealed = len(keep)
	if err := w.writeManifest(); err != nil {
		return res, err
	}
	for _, info := range drop {
		if err := os.Remove(filepath.Join(w.cfg.Dir, info.Name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return res, fmt.Errorf("segment: retain: %w", err)
		}
		res.Segments++
		res.Bytes += info.Bytes
	}
	if w.cfg.Fsync >= FsyncRotate {
		if err := syncDir(w.cfg.Dir); err != nil {
			return res, err
		}
	}
	return res, nil
}
