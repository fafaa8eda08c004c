// Compressed frames: the FlagCompressed (0x04) half of the wire
// format. A compressed frame is an ordinary frame whose payload bytes
// were run through raw DEFLATE (RFC 1951) before sealing; the tag of a
// tagged frame stays uncompressed in front of the deflate stream so the
// router can read provenance without inflating, and the CRC trailer
// covers the on-wire (compressed) bytes. Decode inflates transparently
// through compress/flate's reader — callers see exactly the payload the
// producer encoded, which is what keeps the determinism contract:
// compressed and uncompressed transport of the same batch decode to
// byte-identical payloads.
//
// The deflate bytes come from this file's own encoder (appendDeflate:
// greedy LZ77 into one fixed-Huffman block, 16 KB of state on the
// stack), so they are fixed by the repository, not by the Go toolchain,
// and a golden can pin them. Any RFC 1951 inflater reads them.
//
// Compression is advisory at encode time: the AppendXxxCompressed
// functions fall back to a plain frame when the payload is below the
// threshold or when deflate fails to shrink it, so a stream with
// compression enabled may legally interleave both forms and a consumer
// must (and does, via the flag byte) handle each frame independently.

package wire

import (
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sync"

	"fadewich/internal/engine"
)

// DefaultCompressMin is the payload size below which the compressed
// append functions do not attempt deflate (min <= 0 selects it). Small
// batches are dominated by the frame overhead and the deflate stream's
// own framing; compressing them costs CPU to save nothing.
const DefaultCompressMin = 256

// flateReaders pools inflaters (they satisfy flate.Resetter).
var flateReaders = sync.Pool{New: func() any { return flate.NewReader(nil) }}

// The encoder's parameters. The hash table is hashSize int32 entries,
// 16 KB, and lives on appendDeflate's stack, so compressing holds no
// state between frames and needs no lock.
const (
	hashBits   = 12
	hashSize   = 1 << hashBits
	minMatch   = 4       // bytes hashed and matched; deflate allows 3
	maxMatch   = 258     // the longest length deflate encodes
	maxDist    = 1 << 15 // deflate's window
	endOfBlock = 256     // the literal/length symbol that closes a block
)

// huffCode is one code of the fixed Huffman table, bit-reversed so that
// it can be written LSB first like every other deflate field.
type huffCode struct {
	code uint16
	len  uint8
}

// fixedLit is RFC 1951 §3.2.6's fixed literal/length code.
var fixedLit = func() (t [288]huffCode) {
	for v := range t {
		var base, n, first int
		switch {
		case v < 144:
			base, n, first = 0x30, 8, 0
		case v < 256:
			base, n, first = 0x190, 9, 144
		case v < 280:
			base, n, first = 0, 7, 256
		default:
			base, n, first = 0xc0, 8, 280
		}
		code := uint16(base + v - first)
		t[v] = huffCode{bits.Reverse16(code) >> (16 - n), uint8(n)}
	}
	return t
}()

// bitWriter packs deflate fields LSB first into dst.
type bitWriter struct {
	dst  []byte
	acc  uint64
	nacc uint
}

// write appends the low n bits of b, n <= 32.
func (w *bitWriter) write(b uint32, n uint) {
	w.acc |= uint64(b) << w.nacc
	w.nacc += n
	if w.nacc >= 32 {
		w.dst = binary.LittleEndian.AppendUint32(w.dst, uint32(w.acc))
		w.acc >>= 32
		w.nacc -= 32
	}
}

func (w *bitWriter) lit(v int) {
	c := fixedLit[v]
	w.write(uint32(c.code), uint(c.len))
}

// match writes a length/distance pair: length in [minMatch, maxMatch],
// dist in [1, maxDist].
func (w *bitWriter) match(length, dist int) {
	if length == maxMatch {
		w.lit(285)
	} else if m := uint32(length - 3); m < 8 {
		w.lit(257 + int(m))
	} else {
		nb := uint(bits.Len32(m) - 1) // m's top bit; 3..7
		w.lit(257 + int(4*(nb-1)+uint(m>>(nb-2))&3))
		w.write(m&(1<<(nb-2)-1), nb-2)
	}
	// A fixed distance code is its symbol in 5 bits, written reversed.
	if d := uint32(dist - 1); d < 4 {
		w.write(bits.Reverse32(d)>>27, 5)
	} else {
		nb := uint(bits.Len32(d) - 1) // d's top bit; 2..14
		code := uint32(2*nb) + (d>>(nb-1))&1
		w.write(bits.Reverse32(code)>>27, 5)
		w.write(d&(1<<(nb-1)-1), nb-1)
	}
}

// flush appends the bits still held, padding the last byte with zeros.
func (w *bitWriter) flush() []byte {
	for ; w.nacc > 0; w.nacc -= min(w.nacc, 8) {
		w.dst = append(w.dst, byte(w.acc))
		w.acc >>= 8
	}
	return w.dst
}

func load32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i:]) }

func hash4(u uint32) uint32 { return (u * 0x1e35a7bd) >> (32 - hashBits) }

// appendDeflate appends a raw DEFLATE stream (RFC 1951) of src to dst
// and returns the extended slice. The stream is one final block under
// the fixed Huffman code, its matches found by greedy LZ77 over a
// 4-byte hash with one candidate per bucket. It never exceeds
// ⌈(9·len(src) + 10)/8⌉ bytes: a literal costs at most 9 bits, and a
// match at most 31 bits for at least minMatch bytes.
func appendDeflate(dst, src []byte) []byte {
	var table [hashSize]int32
	w := bitWriter{dst: dst}
	w.write(1|1<<1, 3) // BFINAL, BTYPE=01 (fixed Huffman)
	lit := 0           // start of the literals not yet written
	for i := 0; i+minMatch <= len(src); {
		cur := load32(src, i)
		h := hash4(cur)
		cand := int(table[h])
		table[h] = int32(i)
		if cand >= i || i-cand > maxDist || load32(src, cand) != cur {
			i++
			continue
		}
		n := minMatch
		for limit := min(len(src)-i, maxMatch); n < limit && src[cand+n] == src[i+n]; n++ {
		}
		for ; lit < i; lit++ {
			w.lit(int(src[lit]))
		}
		w.match(n, i-cand)
		i += n
		lit = i
	}
	for ; lit < len(src); lit++ {
		w.lit(int(src[lit]))
	}
	w.lit(endOfBlock)
	return w.flush()
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
	// Keep comp's array: when the append grew it, the caller's next
	// frame then fits without growing again.
	comp := appendDeflate(dst, payload)
	if len(comp)-len(dst) >= len(payload) {
		return comp[:len(dst)], false
	}
	n := copy(comp[payloadStart:], comp[len(dst):])
	return comp[:payloadStart+n], true
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
