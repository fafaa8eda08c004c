package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"
)

// equalActs compares action slices field by field, times as raw
// float64 bits.
func equalActs(a, b []fuzzAct) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fuzzAct is an OfficeAction flattened to comparable fields.
type fuzzAct struct {
	office, ws, label int
	typ, cause        uint64
	timeBits          uint64
}

// FuzzDecode throws arbitrary bytes at the Decoder: every outcome must
// be a clean decode, io.EOF, or one of the classified errors — never a
// panic — and every successful decode must survive a re-encode with
// identical actions.
func FuzzDecode(f *testing.F) {
	// Seed with golden frames: the fixture batch, an empty batch, a torn
	// prefix, and a corrupted byte.
	var seeds [][]byte
	frame, err := AppendFrame(nil, V1JSONL, testBatch())
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, frame, frame[:len(frame)-5])
	bad := append([]byte(nil), frame...)
	bad[HeaderSize+1] ^= 0x10
	seeds = append(seeds, bad)
	empty, err := AppendFrame(nil, V1JSONL, nil)
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, empty, append(append([]byte(nil), frame...), empty...))
	tagged, err := AppendTaggedFrame(nil, V1JSONL, Tag{Source: 3, Epoch: 41}, testBatch())
	if err != nil {
		f.Fatal(err)
	}
	final, err := AppendTaggedFrame(nil, V1JSONL, Tag{Source: 3, Epoch: 42, Final: true}, nil)
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, tagged, append(append([]byte(nil), tagged...), final...))
	// Compressed seeds: a FlagCompressed frame (min 1 forces deflate
	// even for the small fixture batch), a compressed+tagged one, a
	// torn prefix of each, and one with a flipped deflate byte.
	comp, _, err := AppendFrameCompressed(nil, V1JSONL, bigBatch(), 1)
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, comp, comp[:len(comp)-6])
	badComp := append([]byte(nil), comp...)
	badComp[HeaderSize+3] ^= 0x10
	seeds = append(seeds, badComp)
	compTagged, _, err := AppendTaggedFrameCompressed(nil, V1JSONL, Tag{Source: 5, Epoch: 9}, bigBatch(), 1)
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, compTagged, append(append([]byte(nil), comp...), compTagged...))
	for _, seed := range seeds {
		f.Add(seed)
	}
	// Each seed's twin under the retired codec 2, first frame resealed
	// when it is whole, must decode to ErrVersion and seeds the corpus.
	for i, seed := range seeds {
		v2 := bytes.Clone(seed)
		v2[2] = 2
		if n := HeaderSize + int(binary.BigEndian.Uint32(v2[4:HeaderSize])) + TrailerSize; n <= len(v2) {
			binary.BigEndian.PutUint32(v2[n-TrailerSize:], crc32.Checksum(v2[:n-TrailerSize], castagnoli))
		}
		if _, err := NewDecoder(bytes.NewReader(v2)).Decode(); !errors.Is(err, ErrVersion) {
			f.Fatalf("version-2 twin of seed %d: got %v, want ErrVersion", i, err)
		}
		f.Add(v2)
	}
	// The toolchain-independent golden compressed frames (stored-block
	// deflate streams) seed the corpus too.
	for _, golden := range []string{goldenCompressedV1, goldenCompressedTaggedV1} {
		frame, err := hex.DecodeString(golden)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(bytes.NewReader(data))
		for {
			acts, err := d.Decode()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
					t.Fatalf("unclassified decode error: %v", err)
				}
				return
			}
			frame, err := AppendFrame(nil, V1JSONL, acts)
			if err != nil {
				t.Fatalf("re-encode of a decoded batch failed: %v", err)
			}
			again, err := NewDecoder(bytes.NewReader(frame)).Decode()
			if err != nil {
				t.Fatalf("re-decode of a re-encoded batch failed: %v", err)
			}
			a, b := make([]fuzzAct, len(acts)), make([]fuzzAct, len(again))
			for i, x := range acts {
				a[i] = fuzzAct{x.Office, x.Action.Workstation, x.Action.Label, uint64(x.Action.Type), uint64(x.Action.Cause), math.Float64bits(x.Action.Time)}
			}
			for i, x := range again {
				b[i] = fuzzAct{x.Office, x.Action.Workstation, x.Action.Label, uint64(x.Action.Type), uint64(x.Action.Cause), math.Float64bits(x.Action.Time)}
			}
			if !equalActs(a, b) {
				t.Fatalf("round trip changed the batch: %+v vs %+v", acts, again)
			}
		}
	})
}

// FuzzDeflate holds the encoder to RFC 1951 through compress/flate's
// reader: for any prefix and src, appendDeflate(prefix, src) leaves the
// prefix as it was, its stream inflates to src, and the stream is no
// longer than the fixed-Huffman worst case, ⌈(9·len(src) + 10)/8⌉
// bytes (every byte a 9-bit literal, plus the 3-bit header and the
// 7-bit end of block).
func FuzzDeflate(f *testing.F) {
	f.Add([]byte(nil), []byte(nil))
	f.Add([]byte("FW\x01\x00"), AppendJSONL(nil, bigBatch()))
	f.Add([]byte{0xff}, bytes.Repeat([]byte{0}, 3*maxMatch+5))
	f.Add([]byte(nil), bytes.Repeat([]byte("abcdefgh"), maxDist/4))
	high := make([]byte, 600)
	for i := range high {
		high[i] = byte(144 + i%112) // 9-bit literals only
	}
	f.Add([]byte("x"), high)
	f.Fuzz(func(t *testing.T, prefix, src []byte) {
		// Spare capacity past the prefix: appendDeflate must write only
		// beyond len(dst).
		dst := append(make([]byte, 0, len(prefix)+64), prefix...)
		out := appendDeflate(dst, src)
		if !bytes.Equal(out[:len(prefix)], prefix) {
			t.Fatal("appendDeflate changed the prefix")
		}
		comp := out[len(prefix):]
		if bound := (9*len(src) + 10 + 7) / 8; len(comp) > bound {
			t.Fatalf("%d-byte stream for %d bytes, over the %d-byte worst case", len(comp), len(src), bound)
		}
		got, err := io.ReadAll(flate.NewReader(bytes.NewReader(comp)))
		if err != nil {
			t.Fatalf("inflate: %v", err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("inflated %d bytes, want the %d source bytes", len(got), len(src))
		}
	})
}
