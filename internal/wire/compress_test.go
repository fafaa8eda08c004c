package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"fadewich/internal/engine"
	"fadewich/internal/rng"
)

// bigBatch repeats the fixture batch until its payload is comfortably
// past DefaultCompressMin, so the compressed append
// functions actually deflate it.
func bigBatch() []engine.OfficeAction {
	var out []engine.OfficeAction
	for len(out) < 64 {
		out = append(out, testBatch()...)
	}
	return out
}

func TestCompressedFrameRoundTrip(t *testing.T) {
	batch := bigBatch()
	frame, logical, err := AppendFrameCompressed(nil, V1JSONL, batch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if frame[3]&FlagCompressed == 0 {
		t.Fatal("large batch did not set FlagCompressed")
	}
	plain, err := AppendFrame(nil, V1JSONL, batch)
	if err != nil {
		t.Fatal(err)
	}
	if logical != len(plain) {
		t.Fatalf("logical size %d, uncompressed frame is %d bytes", logical, len(plain))
	}
	if len(frame) >= len(plain) {
		t.Fatalf("compressed frame (%d bytes) not smaller than plain (%d)", len(frame), len(plain))
	}
	d := NewDecoder(bytes.NewReader(frame))
	got, err := d.Decode()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatal("round trip changed the batch")
	}
	if d.Offset() != int64(len(frame)) {
		t.Fatalf("offset %d, want the on-wire size %d", d.Offset(), len(frame))
	}
	// Determinism: the inflated payload is byte-identical to the
	// uncompressed encoding.
	fr, err := NewDecoder(bytes.NewReader(frame)).readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fr.payload, AppendJSONL(nil, batch)) {
		t.Fatal("inflated payload differs from the uncompressed encoding")
	}
}

func TestCompressedSmallBatchStaysPlain(t *testing.T) {
	batch := testBatch()[:1]
	frame, logical, err := AppendFrameCompressed(nil, V1JSONL, batch, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := AppendFrame(nil, V1JSONL, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, plain) {
		t.Fatal("sub-threshold batch did not fall back to the plain frame")
	}
	if logical != len(plain) {
		t.Fatalf("logical %d, want %d", logical, len(plain))
	}
	if _, err := NewDecoder(bytes.NewReader(frame)).Decode(); err != nil {
		t.Fatal(err)
	}
}

func TestCompressedIncompressibleFallsBack(t *testing.T) {
	// A pseudo-random payload will not shrink under deflate;
	// maybeCompress must leave it in place rather than grow it.
	src := rng.New(11)
	plain := []byte{'F', 'W', 1, 0, 0, 0, 0, 0}
	for i := 0; i < 4*DefaultCompressMin; i++ {
		plain = append(plain, byte(src.Intn(256)))
	}
	got, compressed := maybeCompress(bytes.Clone(plain), HeaderSize, 0)
	if compressed {
		t.Fatal("incompressible payload was compressed")
	}
	if !bytes.Equal(got, plain) {
		t.Fatal("fallback changed the plain frame bytes")
	}
}

func TestCompressedTaggedCompose(t *testing.T) {
	batch := bigBatch()
	tag := Tag{Source: 7, Epoch: 1234}
	frame, logical, err := AppendTaggedFrameCompressed(nil, V1JSONL, tag, batch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if frame[3] != FlagTagged|FlagCompressed {
		t.Fatalf("flags %#02x, want tagged|compressed", frame[3])
	}
	// The tag stays uncompressed at the body start.
	if frame[HeaderSize] != 7 {
		t.Fatalf("tag source byte %d not at the body start", frame[HeaderSize])
	}
	plain, err := AppendTaggedFrame(nil, V1JSONL, tag, batch)
	if err != nil {
		t.Fatal(err)
	}
	if logical != len(plain) {
		t.Fatalf("logical %d, want %d", logical, len(plain))
	}
	d := NewDecoder(bytes.NewReader(frame))
	got, err := d.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatal("tagged+compressed round trip changed the batch")
	}
	gotTag, tagged := d.Tag()
	if !tagged || gotTag != tag {
		t.Fatalf("tag %+v (tagged=%v), want %+v", gotTag, tagged, tag)
	}
}

// Golden fixtures: FlagCompressed frames whose deflate stream is a
// single stored block — a form every RFC 1951 inflater accepts and no
// toolchain's compressor output can drift away from. They pin the
// on-wire layout (flag bit 0x04, CRC over the compressed body, tag
// ahead of the deflate stream) independently of compress/flate's
// encoder. The logical payload is the two JSONL lines already pinned
// by TestAppendJSONLByteCompat.
const (
	goldenCompressedV1       = "46570104000000a601a1005eff7b226f6666696365223a332c2274696d65223a312e322c2274797065223a22616c6572742d656e746572222c22776f726b73746174696f6e223a312c226c6162656c223a307d0a7b226f6666696365223a302c2274696d65223a312e342c2274797065223a22646561757468656e746963617465222c22776f726b73746174696f6e223a322c226361757365223a2272756c6531222c226c6162656c223a327d0a3c1bc0e8"
	goldenCompressedTaggedV1 = "46570105000000ab030000002901a1005eff7b226f6666696365223a332c2274696d65223a312e322c2274797065223a22616c6572742d656e746572222c22776f726b73746174696f6e223a312c226c6162656c223a307d0a7b226f6666696365223a302c2274696d65223a312e342c2274797065223a22646561757468656e746963617465222c22776f726b73746174696f6e223a322c226361757365223a2272756c6531222c226c6162656c223a327d0a7e2efb5f"
)

func TestCompressedFrameGolden(t *testing.T) {
	want := testBatch()[:2]

	frame, err := hex.DecodeString(goldenCompressedV1)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(bytes.NewReader(frame))
	got, err := d.Decode()
	if err != nil {
		t.Fatalf("golden compressed frame: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("golden compressed frame decoded to %+v", got)
	}
	if frame[3]&FlagCompressed == 0 {
		t.Fatal("golden frame not flagged compressed")
	}
	if d.Offset() != int64(len(frame)) {
		t.Fatalf("offset %d, want %d", d.Offset(), len(frame))
	}

	frame, err = hex.DecodeString(goldenCompressedTaggedV1)
	if err != nil {
		t.Fatal(err)
	}
	d = NewDecoder(bytes.NewReader(frame))
	got, err = d.Decode()
	if err != nil {
		t.Fatalf("golden tagged+compressed frame: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("golden tagged+compressed frame decoded to %+v", got)
	}
	if tag, tagged := d.Tag(); !tagged || tag != (Tag{Source: 3, Epoch: 41}) {
		t.Fatalf("golden tag %+v (tagged=%v)", tag, tagged)
	}
}

// TestCompressedErrorTaxonomy pins the decode classification around
// FlagCompressed: a CRC-intact body that will not inflate is
// ErrCorrupt (never a leaked flate error), a truncated compressed
// frame is ErrTorn, FlagFinal still needs FlagTagged, and the Offset
// contract — truncation point after the last good frame — holds when
// the bad frame follows good ones.
func TestCompressedErrorTaxonomy(t *testing.T) {
	good, _, err := AppendFrameCompressed(nil, V1JSONL, bigBatch(), 0)
	if err != nil {
		t.Fatal(err)
	}

	// reseal rebuilds the length and CRC of a mutated frame so only the
	// targeted defect (not the checksum) trips the decoder.
	reseal := func(hdr byte, body []byte) []byte {
		f := []byte{'F', 'W', 1, hdr, 0, 0, 0, 0}
		f = append(f, body...)
		f, err := sealFrame(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	cases := []struct {
		name  string
		bytes []byte
		want  error
	}{
		{"garbage deflate stream", reseal(FlagCompressed, []byte("this is not a deflate stream at all")), ErrCorrupt},
		{"empty compressed body", reseal(FlagCompressed, nil), ErrCorrupt},
		{"truncated deflate stream", reseal(FlagCompressed, good[HeaderSize:len(good)-TrailerSize-7]), ErrCorrupt},
		{"final without tagged", reseal(FlagFinal|FlagCompressed, good[HeaderSize:len(good)-TrailerSize]), ErrCorrupt},
		{"reserved bit with compressed", reseal(FlagCompressed|0x08, good[HeaderSize:len(good)-TrailerSize]), ErrCorrupt},
		{"torn compressed frame", good[:len(good)-3], ErrTorn},
		{"flipped compressed byte", func() []byte {
			b := bytes.Clone(good)
			b[HeaderSize+4] ^= 0x20
			return b
		}(), ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDecoder(bytes.NewReader(tc.bytes))
			_, err := d.Decode()
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			if d.Offset() != 0 {
				t.Fatalf("offset advanced to %d on a failed decode", d.Offset())
			}
		})
	}

	// Offset contract across a mixed stream: one good frame, then a
	// compressed frame whose deflate stream is garbage — the offset must
	// stop exactly after the good frame.
	bad := reseal(FlagCompressed, []byte("garbage garbage garbage"))
	stream := append(bytes.Clone(good), bad...)
	d := NewDecoder(bytes.NewReader(stream))
	if _, err := d.Decode(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Decode(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad second frame: got %v, want ErrCorrupt", err)
	}
	if d.Offset() != int64(len(good)) {
		t.Fatalf("offset %d after corrupt inflate, want %d", d.Offset(), len(good))
	}
}

// TestCompressedZipBombBounded pins the inflation bound: a tiny frame
// whose deflate stream expands past MaxPayloadBytes must be rejected
// as corrupt, not honored with the allocation.
func TestCompressedZipBombBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates MaxPayloadBytes")
	}
	huge := make([]byte, MaxPayloadBytes+1)
	comp := appendDeflate(nil, huge)
	f := []byte{'F', 'W', 1, FlagCompressed, 0, 0, 0, 0}
	f = append(f, comp...)
	f, err := sealFrame(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecoder(bytes.NewReader(f)).Decode(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zip bomb: got %v, want ErrCorrupt", err)
	}
}

// TestCompressedAppendNoSteadyStateAllocs pins the hot path's pooling:
// once the destination buffer is sized, compressing a batch must not
// allocate per frame (the flate writer comes from the pool).
func TestCompressedAppendNoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of Puts under the race detector, so the pool-hit pin cannot hold")
	}
	batch := bigBatch()
	buf, _, err := AppendFrameCompressed(nil, V1JSONL, batch, 0)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		buf, _, err = AppendFrameCompressed(buf[:0], V1JSONL, batch, 0)
		if err != nil {
			t.Fatal(err)
		}
	})
	// Tolerate the occasional pool miss under GC, but not per-frame
	// compressor construction (~10 allocations, ~600 KiB).
	if allocs > 2 {
		t.Fatalf("AppendFrameCompressed allocates %.1f times per frame", allocs)
	}
}

// BenchmarkEncodeCompressed measures the compressed per-batch encode
// cost — the price of FlagCompressed on the dispatch
// hot path, to read against BenchmarkEncodeFrame's plain cost. The
// compression ratio is reported per run.
func BenchmarkEncodeCompressed(b *testing.B) {
	batch := benchBatch()
	b.Run("v1", func(b *testing.B) {
		var buf []byte
		var logical int
		var err error
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, logical, err = AppendFrameCompressed(buf[:0], V1JSONL, batch, 0)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(logical))
		b.ReportMetric(float64(logical)/float64(len(buf)), "ratio")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(batch)), "ns/action")
	})
}
