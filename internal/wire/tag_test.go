package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"testing"

	"fadewich/internal/core"
	"fadewich/internal/engine"
)

// TestTaggedFrameGolden pins the tagged-frame byte layout: flags 0x01,
// the five-byte source/epoch tag at the head of the length-counted
// body, payload and CRC behind it. These bytes are quoted in
// docs/ARCHITECTURE.md's wire-format section; if they drift, both this
// test and the docs are wrong together.
func TestTaggedFrameGolden(t *testing.T) {
	batch := []engine.OfficeAction{{Office: 3, Action: core.Action{Time: 1.2, Type: core.ActionAlertEnter, Workstation: 1}}}
	frame, err := AppendTaggedFrame(nil, V1JSONL, Tag{Source: 2, Epoch: 7}, batch)
	if err != nil {
		t.Fatal(err)
	}
	payload := AppendJSONL(nil, batch)
	wantHdr := []byte{'F', 'W', 1, FlagTagged, 0, 0, 0, byte(TagSize + len(payload))}
	if !bytes.Equal(frame[:HeaderSize], wantHdr) {
		t.Fatalf("header %x, want %x", frame[:HeaderSize], wantHdr)
	}
	wantTag := []byte{2, 0, 0, 0, 7}
	if !bytes.Equal(frame[HeaderSize:HeaderSize+TagSize], wantTag) {
		t.Fatalf("tag bytes %x, want %x", frame[HeaderSize:HeaderSize+TagSize], wantTag)
	}
	if !bytes.Equal(frame[HeaderSize+TagSize:len(frame)-TrailerSize], payload) {
		t.Fatal("tagged frame payload differs from AppendJSONL")
	}
	const goldenFrame = "465701010000004c02000000077b226f6666696365223a332c2274696d65223a312e322c2274797065223a22616c6572742d656e746572222c22776f726b73746174696f6e223a312c226c6162656c223a307d0a6ceeacda"
	if got := hex.EncodeToString(frame); got != goldenFrame {
		t.Fatalf("tagged frame bytes drifted:\ngot  %s\nwant %s", got, goldenFrame)
	}
}

// TestTaggedFrameRoundTrip decodes a tagged frame and checks the tag surfaces on the decoder, the payload comes back
// intact, and the offset accounts for the tag bytes.
func TestTaggedFrameRoundTrip(t *testing.T) {
	tag := Tag{Source: 9, Epoch: 123456}
	frame, err := AppendTaggedFrame(nil, V1JSONL, tag, testBatch())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(bytes.NewReader(frame))
	got, err := d.Decode()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, testBatch()) {
		t.Fatal("round trip changed the batch")
	}
	gotTag, tagged := d.Tag()
	if !tagged || gotTag != tag {
		t.Fatalf("decoder tag = %+v (tagged=%v), want %+v", gotTag, tagged, tag)
	}
	if d.Offset() != int64(len(frame)) {
		t.Fatalf("offset %d, want %d", d.Offset(), len(frame))
	}
	if _, err := d.Decode(); err != io.EOF {
		t.Fatalf("second decode returned %v, want io.EOF", err)
	}
}

// TestTaggedEmptyAndFinalFrames covers the two frame shapes the epoch
// protocol depends on: an empty tagged frame ("this epoch dispatched
// nothing") and the FlagFinal end-of-stream marker.
func TestTaggedEmptyAndFinalFrames(t *testing.T) {
	empty, err := AppendTaggedFrame(nil, V1JSONL, Tag{Source: 1, Epoch: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	final, err := AppendTaggedFrame(nil, V1JSONL, Tag{Source: 1, Epoch: 1, Final: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final[3] != FlagTagged|FlagFinal {
		t.Fatalf("final frame flags %#02x, want %#02x", final[3], FlagTagged|FlagFinal)
	}
	d := NewDecoder(bytes.NewReader(append(append([]byte(nil), empty...), final...)))
	acts, err := d.Decode()
	if err != nil || len(acts) != 0 {
		t.Fatalf("empty tagged frame: acts=%v err=%v", acts, err)
	}
	if tag, ok := d.Tag(); !ok || tag.Final {
		t.Fatalf("empty frame tag = %+v (ok=%v), want non-final", tag, ok)
	}
	if _, err := d.Decode(); err != nil {
		t.Fatalf("final frame decode: %v", err)
	}
	if tag, ok := d.Tag(); !ok || !tag.Final || tag.Epoch != 1 {
		t.Fatalf("final frame tag = %+v (ok=%v), want final epoch 1", tag, ok)
	}
}

// TestTaggedFrameErrors pins the encode- and decode-side rejection of
// malformed tags: source 0, oversized epochs, FlagFinal without
// FlagTagged, unknown flag bits, and a tagged body shorter than its
// tag.
func TestTaggedFrameErrors(t *testing.T) {
	if _, err := AppendTaggedFrame(nil, V1JSONL, Tag{Source: 0, Epoch: 1}, nil); err == nil {
		t.Fatal("source 0 accepted")
	}
	if _, err := AppendTaggedFrame(nil, V1JSONL, Tag{Source: 1, Epoch: MaxTagEpoch + 1}, nil); err == nil {
		t.Fatal("33-bit epoch accepted")
	}

	corrupt := func(name string, mut func(f []byte) []byte) {
		frame, err := AppendTaggedFrame(nil, V1JSONL, Tag{Source: 1, Epoch: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		frame = mut(frame)
		if _, err := NewDecoder(bytes.NewReader(frame)).Decode(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
	reseal := func(f []byte) []byte {
		f, err := sealFrame(f[:len(f)-TrailerSize], 0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	corrupt("final without tagged", func(f []byte) []byte {
		f[3] = FlagFinal
		return reseal(f)
	})
	corrupt("unknown flag bit", func(f []byte) []byte {
		f[3] = FlagTagged | 0x04
		return reseal(f)
	})
	corrupt("tagged source 0", func(f []byte) []byte {
		f[HeaderSize] = 0
		return reseal(f)
	})
	corrupt("body shorter than tag", func(f []byte) []byte {
		// A tagged frame with a 2-byte body: header claims tagged but
		// cannot hold the 5-byte tag.
		g := []byte{'F', 'W', 1, FlagTagged, 0, 0, 0, 2, 0xab, 0xcd}
		return reseal(append(g, 0, 0, 0, 0))
	})
	corrupt("flipped tag byte fails CRC", func(f []byte) []byte {
		f[HeaderSize+2] ^= 0x40
		return f
	})
}
