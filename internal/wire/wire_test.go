package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"fadewich/internal/control"
	"fadewich/internal/core"
	"fadewich/internal/engine"
)

// testBatch is the fixture batch shared by the golden and round-trip
// tests: it exercises every field, including a zero Cause, a set Label
// and a time whose float64 repr is not a short decimal.
func testBatch() []engine.OfficeAction {
	return []engine.OfficeAction{
		{Office: 3, Action: core.Action{Time: 1.2, Type: core.ActionAlertEnter, Workstation: 1}},
		{Office: 0, Action: core.Action{Time: 1.4, Type: core.ActionDeauthenticate, Workstation: 2, Cause: control.CauseRule1, Label: 2}},
		{Office: 61, Action: core.Action{Time: 0.30000000000000004, Type: core.ActionScreensaverOn, Workstation: 0}},
		{Office: 7, Action: core.Action{Time: 512.5, Type: core.ActionDeauthenticate, Workstation: 0, Cause: control.CauseTimeout}},
		{Office: 7, Action: core.Action{Time: 513, Type: core.ActionAlertExit, Workstation: 0, Label: 1}},
	}
}

// TestAppendJSONLByteCompat pins the v1 payload byte stream: it is the
// pre-frame sink encoding and must never drift (v1 frame payloads and
// fadewich-tail -format jsonl output are this, byte for byte).
func TestAppendJSONLByteCompat(t *testing.T) {
	got := AppendJSONL(nil, testBatch()[:2])
	want := `{"office":3,"time":1.2,"type":"alert-enter","workstation":1,"label":0}
{"office":0,"time":1.4,"type":"deauthenticate","workstation":2,"cause":"rule1","label":2}
`
	if string(got) != want {
		t.Fatalf("v1 payload drifted:\ngot  %q\nwant %q", got, want)
	}
}

// TestFrameGoldenV1 pins the full v1 frame byte layout (header, payload,
// CRC trailer) for a one-action batch. If this hash-of-bytes changes,
// every persisted segment file in the wild becomes unreadable — bump the
// codec version instead.
func TestFrameGoldenV1(t *testing.T) {
	batch := []engine.OfficeAction{{Office: 3, Action: core.Action{Time: 1.2, Type: core.ActionAlertEnter, Workstation: 1}}}
	frame, err := AppendFrame(nil, V1JSONL, batch)
	if err != nil {
		t.Fatal(err)
	}
	payload := AppendJSONL(nil, batch)
	wantHdr := []byte{'F', 'W', 1, 0, 0, 0, 0, byte(len(payload))}
	if !bytes.Equal(frame[:HeaderSize], wantHdr) {
		t.Fatalf("header %x, want %x", frame[:HeaderSize], wantHdr)
	}
	if !bytes.Equal(frame[HeaderSize:len(frame)-TrailerSize], payload) {
		t.Fatal("frame payload differs from AppendJSONL")
	}
	const goldenFrame = "46570100000000477b226f6666696365223a332c2274696d65223a312e322c2274797065223a22616c6572742d656e746572222c22776f726b73746174696f6e223a312c226c6162656c223a307d0abf54babd"
	if got := hex.EncodeToString(frame); got != goldenFrame {
		t.Fatalf("v1 frame bytes drifted:\ngot  %s\nwant %s", got, goldenFrame)
	}
}

// TestRoundTripBothVersions checks the two outcomes a codec byte can
// have: V1JSONL round-trips, and every other version, the retired
// binary codec 2 included, is refused at encode time with ErrVersion.
func TestRoundTripBothVersions(t *testing.T) {
	frame, err := AppendFrame(nil, V1JSONL, testBatch())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(bytes.NewReader(frame))
	got, err := d.Decode()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, testBatch()) {
		t.Fatalf("round trip changed the batch:\ngot  %+v\nwant %+v", got, testBatch())
	}
	if d.Offset() != int64(len(frame)) {
		t.Fatalf("offset %d, want %d", d.Offset(), len(frame))
	}
	if _, err := d.Decode(); err != io.EOF {
		t.Fatalf("second decode returned %v, want io.EOF", err)
	}
	for _, v := range []Version{0, 2, 9} {
		if _, err := AppendFrame(nil, v, testBatch()); !errors.Is(err, ErrVersion) {
			t.Fatalf("AppendFrame under codec %d: got %v, want ErrVersion", v, err)
		}
		if _, err := AppendTaggedFrame(nil, v, Tag{Source: 1}, nil); !errors.Is(err, ErrVersion) {
			t.Fatalf("AppendTaggedFrame under codec %d: got %v, want ErrVersion", v, err)
		}
		if _, _, err := AppendFrameCompressed(nil, v, testBatch(), 0); !errors.Is(err, ErrVersion) {
			t.Fatalf("AppendFrameCompressed under codec %d: got %v, want ErrVersion", v, err)
		}
		if _, _, err := AppendTaggedFrameCompressed(nil, v, Tag{Source: 1}, nil, 0); !errors.Is(err, ErrVersion) {
			t.Fatalf("AppendTaggedFrameCompressed under codec %d: got %v, want ErrVersion", v, err)
		}
	}
}

// TestEncoderDecoderStream decodes a stream of back-to-back frames in
// order, ending in io.EOF at the clean boundary.
func TestEncoderDecoderStream(t *testing.T) {
	batches := [][]engine.OfficeAction{testBatch(), testBatch()[:1], testBatch()[2:]}
	var stream []byte
	for _, b := range batches {
		var err error
		if stream, err = AppendFrame(stream, V1JSONL, b); err != nil {
			t.Fatal(err)
		}
	}
	d := NewDecoder(bytes.NewReader(stream))
	for i, want := range batches {
		got, err := d.Decode()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d differs", i)
		}
	}
	if _, err := d.Decode(); err != io.EOF {
		t.Fatalf("trailing decode returned %v, want io.EOF", err)
	}
	if d.Offset() != int64(len(stream)) {
		t.Fatalf("offset %d, want %d", d.Offset(), len(stream))
	}
}

func TestDecodeTornVsCorrupt(t *testing.T) {
	frame, err := AppendFrame(nil, V1JSONL, testBatch())
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix of a frame is torn, never corrupt.
	for _, cut := range []int{1, HeaderSize - 1, HeaderSize, HeaderSize + 3, len(frame) - 1} {
		_, err := NewDecoder(bytes.NewReader(frame[:cut])).Decode()
		if !errors.Is(err, ErrTorn) {
			t.Fatalf("prefix of %d bytes: got %v, want ErrTorn", cut, err)
		}
	}
	// A flipped payload byte is corrupt (CRC catches it).
	bad := append([]byte(nil), frame...)
	bad[HeaderSize+2] ^= 0x40
	if _, err := NewDecoder(bytes.NewReader(bad)).Decode(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped payload byte: got %v, want ErrCorrupt", err)
	}
	// Bad magic is corrupt.
	bad = append([]byte(nil), frame...)
	bad[0] = 'X'
	if _, err := NewDecoder(bytes.NewReader(bad)).Decode(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: got %v, want ErrCorrupt", err)
	}
	// Unknown version surfaces as ErrVersion.
	bad = append([]byte(nil), frame...)
	bad[2] = 9
	if _, err := NewDecoder(bytes.NewReader(bad)).Decode(); !errors.Is(err, ErrVersion) {
		t.Fatalf("unknown version: got %v, want ErrVersion", err)
	}
	// Reserved flags are corrupt.
	bad = append([]byte(nil), frame...)
	bad[3] = 1
	if _, err := NewDecoder(bytes.NewReader(bad)).Decode(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reserved flags: got %v, want ErrCorrupt", err)
	}
	// An absurd length field is corrupt, not an allocation.
	bad = append([]byte(nil), frame...)
	bad[4], bad[5], bad[6], bad[7] = 0xff, 0xff, 0xff, 0xff
	if _, err := NewDecoder(bytes.NewReader(bad)).Decode(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized length: got %v, want ErrCorrupt", err)
	}
}

// TestDecodeResumesAfterGoodFrames checks Offset points at the last
// clean frame boundary when a later frame is torn — the contract the
// segment reader's truncation relies on.
func TestDecodeResumesAfterGoodFrames(t *testing.T) {
	f1, _ := AppendFrame(nil, V1JSONL, testBatch()[:2])
	f2, _ := AppendFrame(nil, V1JSONL, testBatch()[2:])
	stream := append(append([]byte(nil), f1...), f2[:len(f2)-3]...)
	d := NewDecoder(bytes.NewReader(stream))
	if _, err := d.Decode(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Decode(); !errors.Is(err, ErrTorn) {
		t.Fatalf("torn second frame: got %v, want ErrTorn", err)
	}
	if d.Offset() != int64(len(f1)) {
		t.Fatalf("offset %d after torn frame, want %d (end of the last good frame)", d.Offset(), len(f1))
	}
}

// failAfterReader yields n bytes of its payload, then a non-EOF error —
// the shape of a disk EIO or a reset connection mid-frame.
type failAfterReader struct {
	data []byte
	n    int
	err  error
}

func (r *failAfterReader) Read(p []byte) (int, error) {
	if r.n >= len(r.data) {
		return 0, r.err
	}
	k := copy(p, r.data[r.n:])
	r.n += k
	if r.n >= len(r.data) {
		return k, r.err
	}
	return k, nil
}

// TestDecodeIOErrorIsNotTorn pins the error taxonomy's third class: a
// real read failure mid-frame must surface as itself, never as ErrTorn
// (a repairing segment reader would otherwise truncate intact frames
// past a transient I/O error) and never as ErrCorrupt.
func TestDecodeIOErrorIsNotTorn(t *testing.T) {
	frame, err := AppendFrame(nil, V1JSONL, testBatch())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("input/output error")
	for _, cut := range []int{0, 3, HeaderSize, len(frame) - 2} {
		_, err := NewDecoder(&failAfterReader{data: frame[:cut], err: boom}).Decode()
		if !errors.Is(err, boom) {
			t.Fatalf("cut %d: decode returned %v, want the underlying I/O error", cut, err)
		}
		if errors.Is(err, ErrTorn) || errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: I/O error misclassified as torn/corrupt: %v", cut, err)
		}
	}
}

func TestParseRoundTrips(t *testing.T) {
	for _, typ := range []core.ActionType{core.ActionAlertEnter, core.ActionAlertExit, core.ActionScreensaverOn, core.ActionDeauthenticate} {
		got, err := ParseActionType(typ.String())
		if err != nil || got != typ {
			t.Fatalf("ParseActionType(%q) = %v, %v", typ.String(), got, err)
		}
	}
	for _, c := range []control.Cause{0, control.CauseRule1, control.CauseAlert, control.CauseTimeout} {
		s := ""
		if c != 0 {
			s = c.String()
		}
		got, err := ParseCause(s)
		if err != nil || got != c {
			t.Fatalf("ParseCause(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseActionType("bogus"); err == nil {
		t.Fatal("unknown action type parsed")
	}
	if _, err := ParseCause("bogus"); err == nil {
		t.Fatal("unknown cause parsed")
	}
}

func TestJSONLTimePrecision(t *testing.T) {
	// Shortest-repr float64 JSON survives a decode→encode→decode cycle
	// bit-exactly; the replay acceptance test depends on it.
	batch := []engine.OfficeAction{{Office: 1, Action: core.Action{
		Time: math.Pi * 1e3, Type: core.ActionAlertEnter,
	}}}
	p := AppendJSONL(nil, batch)
	acts, err := decodeJSONL(p)
	if err != nil {
		t.Fatal(err)
	}
	if acts[0].Action.Time != batch[0].Action.Time {
		t.Fatalf("time %v round-tripped to %v", batch[0].Action.Time, acts[0].Action.Time)
	}
	if !bytes.Equal(AppendJSONL(nil, acts), p) {
		t.Fatal("re-encoded JSONL differs from the original payload")
	}
}
