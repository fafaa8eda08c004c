// Package wire is the versioned wire layer of the action path: one
// place that knows how a batch of engine.OfficeAction turns into bytes
// and back. Every producer (the stream sinks, the segment log) and
// every consumer (fadewich-tail, the segment reader, tests) speaks this
// format; nothing else in the repository hand-rolls framing.
//
// A frame is one dispatched batch:
//
//	offset  size  field
//	0       2     magic "FW" (0x46 0x57)
//	2       1     codec version (1 = JSONL payload, the only codec)
//	3       1     flags (0, or FlagTagged optionally ored with FlagFinal)
//	4       4     body length, big-endian
//	8       n     body: [5-byte tag if FlagTagged] + payload
//	8+n     4     CRC32C (Castagnoli) over bytes [0, 8+n), big-endian
//
// The payload codec is JSONL — one JSON object per action, one action
// per line, byte-for-byte the encoding the sinks emitted before the
// frame layer existed — so a consumer that understands the historical
// payload decodes every frame. Version 1 is the only codec; the version
// byte stays in the header, so a frame carrying any other version,
// such as one from a build that still wrote the retired binary codec
// 2, decodes to ErrVersion rather than to a torn or corrupt frame.
//
// The flags byte was reserved-zero until the multi-node fleet needed
// provenance on worker streams. FlagTagged (0x01) prefixes the body
// with a five-byte tag — a one-byte source ID naming the producing
// worker and a four-byte big-endian epoch naming the dispatch cycle —
// which the stream router uses to re-merge per-worker streams into the
// global order (see internal/cluster). FlagFinal (0x02, only valid
// together with FlagTagged) marks a clean end-of-stream frame: the
// tagged source promises no further epochs. FlagCompressed (0x04)
// marks a payload carried as a DEFLATE stream, inflated transparently
// on decode (see compress.go). The tag is covered by the CRC and
// counted by the length field; untagged frames are bit-for-bit what
// they always were, and any other flag bit is ErrCorrupt.
//
// The CRC trailer is what makes frames safe to persist: a reader can
// tell a frame that was cut short by a crash (ErrTorn — the file just
// ends mid-frame) from one whose bytes rotted (ErrCorrupt — bad magic,
// flags, length or checksum), and the segment log uses exactly that
// distinction to truncate a torn tail after a crash while refusing to
// silently skip real corruption.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strconv"

	"fadewich/internal/control"
	"fadewich/internal/core"
	"fadewich/internal/engine"
)

// Version is the codec byte of a frame. V1JSONL is the only codec;
// the encoders take it as a parameter and reject anything else with
// ErrVersion.
type Version uint8

// V1JSONL encodes the payload as JSONL, one action per line — the
// historical sink encoding, so pre-frame consumers still understand
// the payload bytes.
const V1JSONL Version = 1

// checkVersion rejects every codec but V1JSONL.
func checkVersion(v Version) error {
	if v != V1JSONL {
		return fmt.Errorf("%w %d", ErrVersion, uint8(v))
	}
	return nil
}

// Frame geometry.
const (
	// HeaderSize is the fixed frame prefix: magic, version, flags,
	// payload length.
	HeaderSize = 8
	// TrailerSize is the CRC32C trailer.
	TrailerSize = 4
	// Overhead is the per-frame cost on top of the payload.
	Overhead = HeaderSize + TrailerSize
	// MaxPayloadBytes bounds a frame's payload (64 MiB). Decode rejects
	// larger length fields as corrupt instead of trusting them with an
	// allocation.
	MaxPayloadBytes = 64 << 20
)

// Magic is the two-byte frame prefix.
var Magic = [2]byte{'F', 'W'}

// Frame flags. The flags byte is either zero (an untagged frame) or
// FlagTagged, optionally ored with FlagFinal; every other bit pattern
// is rejected as corrupt.
const (
	// FlagTagged marks a frame whose body starts with a TagSize-byte
	// source/epoch tag before the payload.
	FlagTagged = 0x01
	// FlagFinal marks a tagged source's clean end-of-stream frame: no
	// further epochs will follow from this source. Valid only together
	// with FlagTagged.
	FlagFinal = 0x02
	// FlagCompressed marks a frame whose payload bytes are a DEFLATE
	// stream of the logical payload. The tag of a tagged frame stays
	// uncompressed in front of the stream, and the CRC covers the
	// compressed (on-wire) bytes. Composes with FlagTagged and
	// FlagFinal; see compress.go.
	FlagCompressed = 0x04
)

// TagSize is the tagged-frame body prefix: one source byte and a
// four-byte big-endian epoch.
const TagSize = 5

// MaxTagEpoch is the largest epoch a tag can carry (the wire field is
// four bytes).
const MaxTagEpoch = 1<<32 - 1

// Tag is the provenance a FlagTagged frame carries: which worker
// produced the batch (Source, a cluster-assigned non-zero ID) and
// which dispatch cycle it belongs to (Epoch, strictly increasing per
// source). Final marks the source's last frame.
type Tag struct {
	Source uint8
	Epoch  uint64
	Final  bool
}

// Errors. Decode wraps them, so test with errors.Is.
var (
	// ErrTorn marks a frame cut short by the end of the stream — the
	// signature of a crash mid-write. Everything decoded before it is
	// intact.
	ErrTorn = errors.New("wire: torn frame")
	// ErrCorrupt marks bytes that cannot be a frame: bad magic, reserved
	// flags set, an oversized length, a checksum mismatch, or an
	// undecodable payload.
	ErrCorrupt = errors.New("wire: corrupt frame")
	// ErrVersion marks a frame whose codec version this build does not
	// know — every version but V1JSONL, the retired binary codec 2
	// included.
	ErrVersion = errors.New("wire: unknown codec version")
)

// castagnoli is the CRC32C table shared by encode and decode.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// wireAction is the JSON shape of one action on a codec-v1 payload. The
// field set, order and tags are frozen: they define the v1 byte stream.
// Decode unmarshals through it, and the differential test marshals it
// as the reference AppendJSONL's hand-rolled encoding must match byte
// for byte.
type wireAction struct {
	Office      int     `json:"office"`
	Time        float64 `json:"time"`
	Type        string  `json:"type"`
	Workstation int     `json:"workstation"`
	Cause       string  `json:"cause,omitempty"`
	Label       int     `json:"label"`
}

// AppendJSONL appends the codec-v1 payload encoding of a batch to dst
// and returns the extended slice: one JSON object per action, one
// action per line, in batch order. This is the LogSink file format and
// the v1 frame payload, unchanged from the pre-frame wire encoding.
//
// The encoding is hand-rolled but byte-identical to json.Marshal of
// wireAction (TestAppendJSONLMatchesStdlib pins the equivalence): the
// reflection-based marshaller allocated per action, which dominated the
// sink hot path's allocation profile at fleet scale.
func AppendJSONL(dst []byte, batch []engine.OfficeAction) []byte {
	for i := range batch {
		a := &batch[i]
		dst = append(dst, `{"office":`...)
		dst = strconv.AppendInt(dst, int64(a.Office), 10)
		dst = append(dst, `,"time":`...)
		dst = appendJSONFloat(dst, a.Action.Time)
		dst = append(dst, `,"type":`...)
		dst = appendJSONString(dst, a.Action.Type.String())
		dst = append(dst, `,"workstation":`...)
		dst = strconv.AppendInt(dst, int64(a.Action.Workstation), 10)
		if a.Action.Cause != 0 {
			dst = append(dst, `,"cause":`...)
			dst = appendJSONString(dst, a.Action.Cause.String())
		}
		dst = append(dst, `,"label":`...)
		dst = strconv.AppendInt(dst, int64(a.Action.Label), 10)
		dst = append(dst, '}', '\n')
	}
	return dst
}

// appendJSONFloat appends a float64 exactly as encoding/json does:
// shortest round-trip form, 'f' format except for very small or very
// large magnitudes, with the stdlib's two-digit-exponent cleanup
// (e-09 → e-9). Non-finite values panic, matching the Marshal error the
// old path turned into a panic.
func appendJSONFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		panic(fmt.Errorf("wire: unsupported non-finite time value %v", f))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendJSONString appends s as a JSON string. The enum spellings this
// encoder emits ("alert-enter", "timeout", "action(7)", …) are plain
// printable ASCII with nothing to escape, so the fast path is a quoted
// verbatim copy; anything else defers to json.Marshal for the stdlib's
// exact escaping (including its HTML-safe < form).
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, err := json.Marshal(s)
			if err != nil {
				panic(err) // a string cannot fail to marshal
			}
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendFrame appends one complete frame (header, payload, CRC trailer)
// encoding the batch under codec v, which must be V1JSONL, to dst.
func AppendFrame(dst []byte, v Version, batch []engine.OfficeAction) ([]byte, error) {
	if err := checkVersion(v); err != nil {
		return dst, err
	}
	start := len(dst)
	dst = append(dst, Magic[0], Magic[1], byte(v), 0, 0, 0, 0, 0)
	return sealFrame(AppendJSONL(dst, batch), start)
}

// AppendTaggedFrame appends one complete FlagTagged frame: the batch
// encoded under codec v (V1JSONL), with the frame body prefixed
// by the tag's source and epoch (and FlagFinal set when tag.Final).
// The batch may be empty — an empty tagged frame is how a worker
// reports "this epoch dispatched nothing", which the router needs to
// advance its merge watermark.
func AppendTaggedFrame(dst []byte, v Version, tag Tag, batch []engine.OfficeAction) ([]byte, error) {
	start := len(dst)
	dst, err := appendTaggedHeader(dst, v, tag)
	if err != nil {
		return dst, err
	}
	return sealFrame(AppendJSONL(dst, batch), start)
}

// appendTaggedHeader validates v and tag and appends a tagged frame's
// header (length left zero for sealFrame) and tag bytes.
func appendTaggedHeader(dst []byte, v Version, tag Tag) ([]byte, error) {
	if err := checkVersion(v); err != nil {
		return dst, err
	}
	if tag.Source == 0 {
		return dst, errors.New("wire: tagged frame: source 0 is reserved for untagged streams")
	}
	if tag.Epoch > MaxTagEpoch {
		return dst, fmt.Errorf("wire: tagged frame: epoch %d exceeds the 32-bit wire field", tag.Epoch)
	}
	flags := byte(FlagTagged)
	if tag.Final {
		flags |= FlagFinal
	}
	dst = append(dst, Magic[0], Magic[1], byte(v), flags, 0, 0, 0, 0)
	dst = append(dst, tag.Source)
	return binary.BigEndian.AppendUint32(dst, uint32(tag.Epoch)), nil
}

// sealFrame back-fills the payload length of the frame that begins at
// start and appends the CRC trailer.
func sealFrame(dst []byte, start int) ([]byte, error) {
	n := len(dst) - start - HeaderSize
	if n > MaxPayloadBytes {
		return dst[:start], fmt.Errorf("wire: payload %d bytes exceeds the %d-byte frame limit", n, MaxPayloadBytes)
	}
	binary.BigEndian.PutUint32(dst[start+4:start+HeaderSize], uint32(n))
	crc := crc32.Checksum(dst[start:], castagnoli)
	return binary.BigEndian.AppendUint32(dst, crc), nil
}

// ParseActionType maps the wire spelling back to a core.ActionType.
func ParseActionType(s string) (core.ActionType, error) {
	switch s {
	case "alert-enter":
		return core.ActionAlertEnter, nil
	case "alert-exit":
		return core.ActionAlertExit, nil
	case "screensaver-on":
		return core.ActionScreensaverOn, nil
	case "deauthenticate":
		return core.ActionDeauthenticate, nil
	default:
		return 0, fmt.Errorf("wire: unknown action type %q", s)
	}
}

// ParseCause maps the wire spelling back to a control.Cause ("" is the
// zero Cause of non-deauthentication actions).
func ParseCause(s string) (control.Cause, error) {
	switch s {
	case "":
		return 0, nil
	case "rule1":
		return control.CauseRule1, nil
	case "alert-expiry":
		return control.CauseAlert, nil
	case "timeout":
		return control.CauseTimeout, nil
	default:
		return 0, fmt.Errorf("wire: unknown deauthentication cause %q", s)
	}
}

// decodeJSONL decodes a codec-v1 payload back into actions.
func decodeJSONL(payload []byte) ([]engine.OfficeAction, error) {
	if len(payload) > 0 && payload[len(payload)-1] != '\n' {
		return nil, errors.New("wire: JSONL payload does not end in a newline")
	}
	var out []engine.OfficeAction
	for len(payload) > 0 {
		nl := bytes.IndexByte(payload, '\n')
		line := payload[:nl]
		payload = payload[nl+1:]
		var rec wireAction
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("wire: JSONL line %d: %w", len(out), err)
		}
		typ, err := ParseActionType(rec.Type)
		if err != nil {
			return nil, err
		}
		cause, err := ParseCause(rec.Cause)
		if err != nil {
			return nil, err
		}
		out = append(out, engine.OfficeAction{
			Office: rec.Office,
			Action: core.Action{
				Time:        rec.Time,
				Type:        typ,
				Workstation: rec.Workstation,
				Cause:       cause,
				Label:       rec.Label,
			},
		})
	}
	return out, nil
}

// Decoder reads frames from an io.Reader. Not safe for concurrent use.
type Decoder struct {
	r      *bufio.Reader
	off    int64
	tag    Tag
	tagged bool
	buf    []byte
	zbuf   []byte // inflation buffer for FlagCompressed payloads
}

// NewDecoder returns a Decoder over r. It buffers its reads; do not mix
// with other readers of the same stream.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReaderSize(r, 64<<10)}
}

// Decode reads the next frame and returns its actions. At a clean frame
// boundary with no more data it returns io.EOF; a stream ending
// mid-frame returns an error wrapping ErrTorn; undecodable bytes return
// an error wrapping ErrCorrupt (or ErrVersion for a codec other than
// V1JSONL); an underlying read failure that is not end-of-data is
// returned as itself — it is an I/O problem, not a statement about the
// frame. Offset and Tag describe the last successful decode.
func (d *Decoder) Decode() ([]engine.OfficeAction, error) {
	fr, err := d.readFrame()
	if err != nil {
		return nil, err
	}
	acts, err := decodeJSONL(fr.payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	d.off += int64(HeaderSize + fr.bodyLen + TrailerSize)
	d.tag, d.tagged = fr.tag, fr.tagged
	return acts, nil
}

// frame is one frame as readFrame hands it to Decode: the tag (when
// tagged), the payload (tag bytes stripped, inflated when compressed,
// aliasing the decoder's buffers) and the on-wire body length for
// offset accounting.
type frame struct {
	tag     Tag
	tagged  bool
	payload []byte
	bodyLen int
}

// readFrame reads one frame and verifies everything up to and
// including the CRC trailer (and, for FlagCompressed, a successful
// inflation). It does not advance the decoder's offset — the caller
// does, at its own notion of "successfully decoded", so that a frame
// whose payload fails action decoding still marks the previous frame
// boundary as the torn-tail truncation point.
func (d *Decoder) readFrame() (frame, error) {
	// Only running out of bytes is "torn" — a real I/O failure (disk
	// error, reset connection) must surface as itself, or a repairing
	// segment reader would truncate intact frames past a transient EIO.
	readErr := func(stage string, err error) error {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: %s: %v", ErrTorn, stage, err)
		}
		return fmt.Errorf("wire: %s read: %w", stage, err)
	}
	var fr frame
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(d.r, hdr[:1]); err != nil {
		if err == io.EOF {
			return fr, io.EOF
		}
		return fr, readErr("header", err)
	}
	if _, err := io.ReadFull(d.r, hdr[1:]); err != nil {
		return fr, readErr("header", err)
	}
	if hdr[0] != Magic[0] || hdr[1] != Magic[1] {
		return fr, fmt.Errorf("%w: bad magic %#02x%02x", ErrCorrupt, hdr[0], hdr[1])
	}
	if err := checkVersion(Version(hdr[2])); err != nil {
		return fr, err
	}
	flags := hdr[3]
	tagged := flags&FlagTagged != 0
	if flags&^byte(FlagTagged|FlagFinal|FlagCompressed) != 0 || (flags&FlagFinal != 0 && !tagged) {
		return fr, fmt.Errorf("%w: reserved flags %#02x set", ErrCorrupt, flags)
	}
	n := binary.BigEndian.Uint32(hdr[4:])
	if n > MaxPayloadBytes {
		return fr, fmt.Errorf("%w: payload length %d exceeds the %d-byte limit", ErrCorrupt, n, MaxPayloadBytes)
	}
	if tagged && n < TagSize {
		return fr, fmt.Errorf("%w: tagged frame body %d bytes is shorter than its %d-byte tag", ErrCorrupt, n, TagSize)
	}
	if cap(d.buf) < int(n)+TrailerSize {
		d.buf = make([]byte, int(n)+TrailerSize)
	}
	body := d.buf[:int(n)+TrailerSize]
	if _, err := io.ReadFull(d.r, body); err != nil {
		return fr, readErr("payload", err)
	}
	crc := crc32.Checksum(hdr[:], castagnoli)
	crc = crc32.Update(crc, castagnoli, body[:n])
	if want := binary.BigEndian.Uint32(body[n:]); crc != want {
		return fr, fmt.Errorf("%w: CRC32C %#08x, frame says %#08x", ErrCorrupt, crc, want)
	}
	payload := body[:n]
	if tagged {
		if payload[0] == 0 {
			return fr, fmt.Errorf("%w: tagged frame carries reserved source 0", ErrCorrupt)
		}
		fr.tag = Tag{
			Source: payload[0],
			Epoch:  uint64(binary.BigEndian.Uint32(payload[1:TagSize])),
			Final:  flags&FlagFinal != 0,
		}
		payload = payload[TagSize:]
	}
	if flags&FlagCompressed != 0 {
		// A CRC-intact frame whose deflate stream will not inflate is
		// still corrupt: the logical payload is unrecoverable, and the
		// taxonomy must not leak raw flate errors to callers.
		var err error
		d.zbuf, err = inflate(d.zbuf[:0], payload, MaxPayloadBytes)
		if err != nil {
			return fr, fmt.Errorf("%w: inflate: %v", ErrCorrupt, err)
		}
		payload = d.zbuf
	}
	fr.tagged = tagged
	fr.payload = payload
	fr.bodyLen = int(n)
	return fr, nil
}

// Offset returns the byte offset just past the last successfully
// decoded frame — the truncation point for torn-tail recovery.
func (d *Decoder) Offset() int64 { return d.off }

// Tag returns the source/epoch tag of the last successfully decoded
// frame, and whether that frame was tagged at all — untagged frames
// (the single-process wire format) report false.
func (d *Decoder) Tag() (Tag, bool) { return d.tag, d.tagged }
