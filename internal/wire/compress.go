// Compressed frames: the FlagCompressed (0x04) half of the wire
// format. A compressed frame is an ordinary frame whose payload bytes
// were run through DEFLATE (RFC 1951, compress/flate) before sealing;
// the tag of a tagged frame stays uncompressed in front of the deflate
// stream so the router can read provenance without inflating, and the
// CRC trailer covers the on-wire (compressed) bytes. Decode inflates
// transparently — callers see exactly the payload the producer encoded,
// which is what keeps the determinism contract: compressed and
// uncompressed transport of the same batch decode to byte-identical
// payloads, even though the deflate bytes themselves may differ across
// Go toolchains.
//
// Compression is advisory at encode time: the AppendXxxCompressed
// functions fall back to a plain frame when the payload is below the
// threshold or when deflate fails to shrink it, so a stream with
// compression enabled may legally interleave both forms and a consumer
// must (and does, via the flag byte) handle each frame independently.

package wire

import (
	"compress/flate"
	"fmt"
	"io"
	"sync"

	"fadewich/internal/engine"
)

// DefaultCompressMin is the payload size below which the compressed
// append functions do not attempt deflate (min <= 0 selects it). Small
// batches are dominated by the frame overhead and the deflate stream's
// own framing; compressing them costs CPU to save nothing.
const DefaultCompressMin = 256

// flateLevel is the deflate effort of every compressed frame.
// BestSpeed captures most of the JSONL redundancy (repeated keys, enum
// spellings) at a fraction of the default level's CPU — the right
// trade for a per-dispatch operation.
const flateLevel = flate.BestSpeed

// flateWriter is the process's one deflater at flateLevel, made on
// first use. Its state is about 1.2 MB: far too much to allocate per
// frame, or to keep one per P in a sync.Pool that every GC empties.
// Frames are compressed on the sinks' pump goroutines, so the mutex is
// rarely contended.
var flateWriter struct {
	sync.Mutex
	fw *flate.Writer
	cw countWriter // fw's destination; its buf is nil between calls
}

// flateReaders pools inflaters (they satisfy flate.Resetter).
var flateReaders = sync.Pool{New: func() any { return flate.NewReader(nil) }}

// countWriter adapts a byte slice to io.Writer for the flate writer.
type countWriter struct {
	buf []byte
}

func (c *countWriter) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	return len(p), nil
}

// appendDeflate appends the deflate stream of src to dst and returns
// the extended slice.
func appendDeflate(dst, src []byte) []byte {
	flateWriter.Lock()
	defer flateWriter.Unlock()
	cw := &flateWriter.cw
	fw := flateWriter.fw
	if fw == nil {
		var err error
		if fw, err = flate.NewWriter(cw, flateLevel); err != nil {
			panic(err) // flateLevel is a valid constant level
		}
		flateWriter.fw = fw
	}
	cw.buf = dst
	fw.Reset(cw)
	if _, err := fw.Write(src); err != nil {
		panic(err) // countWriter cannot fail
	}
	if err := fw.Close(); err != nil {
		panic(err) // countWriter cannot fail
	}
	out := cw.buf
	cw.buf = nil // hold no frame between calls
	return out
}

// inflate appends the inflated form of the deflate stream src to dst,
// rejecting streams that inflate past max bytes — the zip-bomb bound;
// the length field already caps the compressed side.
func inflate(dst, src []byte, max int) ([]byte, error) {
	fr := flateReaders.Get().(io.ReadCloser)
	defer flateReaders.Put(fr)
	if err := fr.(flate.Resetter).Reset(newByteReader(src), nil); err != nil {
		return dst, err
	}
	base := len(dst)
	for {
		if len(dst)-base > max {
			return dst, fmt.Errorf("inflated payload exceeds the %d-byte limit", max)
		}
		if cap(dst) == len(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := fr.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return dst, err
		}
	}
	if len(dst)-base > max {
		return dst, fmt.Errorf("inflated payload exceeds the %d-byte limit", max)
	}
	return dst, nil
}

// byteReader is a minimal io.Reader over a slice. flate.Resetter wants
// an io.Reader; bytes.Reader would also do, but allocating one per
// frame is exactly what the pool avoids.
type byteReader struct {
	s []byte
}

func newByteReader(s []byte) *byteReader { return &byteReader{s: s} }

func (b *byteReader) Read(p []byte) (int, error) {
	if len(b.s) == 0 {
		return 0, io.EOF
	}
	n := copy(p, b.s)
	b.s = b.s[n:]
	return n, nil
}

// maybeCompress deflates dst[payloadStart:] in place when it is at
// least min bytes and deflate actually shrinks it, reporting whether it
// did. min <= 0 selects DefaultCompressMin.
func maybeCompress(dst []byte, payloadStart, min int) ([]byte, bool) {
	if min <= 0 {
		min = DefaultCompressMin
	}
	payload := dst[payloadStart:]
	if len(payload) < min {
		return dst, false
	}
	// Deflate into the tail of dst past the payload, then slide the
	// result down over it — one buffer, no pooled scratch to manage.
	comp := appendDeflate(dst, payload)
	if len(comp)-len(dst) >= len(payload) {
		return dst, false
	}
	n := copy(dst[payloadStart:cap(dst)], comp[len(dst):])
	return dst[:payloadStart+n], true
}

// AppendFrameCompressed appends one complete frame like AppendFrame,
// deflating the payload when it is at least min bytes (min <= 0
// selects DefaultCompressMin) and deflate actually shrinks it — the
// frame is plain otherwise. It additionally returns the size the frame
// occupies uncompressed, whether or not compression happened: the
// "logical" byte count behind the sinks' bytes-vs-wire-bytes split.
func AppendFrameCompressed(dst []byte, v Version, batch []engine.OfficeAction, min int) ([]byte, int, error) {
	if err := checkVersion(v); err != nil {
		return dst, 0, err
	}
	start := len(dst)
	dst = append(dst, Magic[0], Magic[1], byte(v), 0, 0, 0, 0, 0)
	return compressAndSeal(dst, start, len(dst), batch, min)
}

// compressAndSeal appends the batch's payload at bodyStart, deflates it
// per maybeCompress, and seals the frame that begins at start. It also
// returns the frame's uncompressed size.
func compressAndSeal(dst []byte, start, bodyStart int, batch []engine.OfficeAction, min int) ([]byte, int, error) {
	dst = AppendJSONL(dst, batch)
	logical := len(dst) - start + TrailerSize
	dst, compressed := maybeCompress(dst, bodyStart, min)
	if compressed {
		dst[start+3] |= FlagCompressed
	}
	dst, err := sealFrame(dst, start)
	return dst, logical, err
}

// AppendTaggedFrameCompressed appends one complete FlagTagged frame
// like AppendTaggedFrame, deflating the payload under the same rules
// as AppendFrameCompressed. The tag bytes stay uncompressed in front
// of the deflate stream, so tagged-frame consumers read provenance
// without inflating. Also returns the uncompressed frame size.
func AppendTaggedFrameCompressed(dst []byte, v Version, tag Tag, batch []engine.OfficeAction, min int) ([]byte, int, error) {
	start := len(dst)
	dst, err := appendTaggedHeader(dst, v, tag)
	if err != nil {
		return dst, 0, err
	}
	return compressAndSeal(dst, start, len(dst), batch, min)
}
