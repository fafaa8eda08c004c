package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"fadewich/internal/cluster"
	"fadewich/internal/core"
	"fadewich/internal/engine"
	"fadewich/internal/segment"
	"fadewich/internal/wire"
)

// asVersion2 rewrites a well-formed frame's codec byte to 2, the
// retired binary codec, and reseals its CRC, so the only defect left is
// the version.
func asVersion2(frame []byte) []byte {
	out := bytes.Clone(frame)
	out[2] = 2
	body := out[:len(out)-wire.TrailerSize]
	crc := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))
	binary.BigEndian.PutUint32(out[len(body):], crc)
	return out
}

// TestRemovedCodecIsErrVersion pins what every consumer does with a
// CRC-intact frame under codec 2, as a build that still wrote the
// binary codec left them: a named wire.ErrVersion, never a torn or
// corrupt frame, and never a truncation of the file it sits in.
func TestRemovedCodecIsErrVersion(t *testing.T) {
	batch := []engine.OfficeAction{
		{Office: 3, Action: core.Action{Time: 1.2, Type: core.ActionAlertEnter, Workstation: 1}},
		{Office: 4, Action: core.Action{Time: 1.4, Type: core.ActionAlertExit}},
	}
	v1, err := wire.AppendFrame(nil, wire.V1JSONL, batch)
	if err != nil {
		t.Fatal(err)
	}
	v2 := asVersion2(v1)

	// segmentReader writes one segment holding a v1 frame and then the
	// v2 frame, replays it, and checks the v1 batch comes back, the v2
	// frame fails with ErrVersion, and the file keeps every byte.
	segmentReader := func(repair bool) func(t *testing.T) error {
		return func(t *testing.T) error {
			dir := t.TempDir()
			path := filepath.Join(dir, "segment-000000-000000001200.fwl")
			data := append(bytes.Clone(v1), v2...)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := segment.OpenDir(dir, segment.Options{Repair: repair})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			got, err := r.Next()
			if err != nil || !reflect.DeepEqual(got, batch) {
				t.Fatalf("v1 frame ahead of the v2 one: %v (%+v)", err, got)
			}
			_, err = r.Next()
			if fi, serr := os.Stat(path); serr != nil || fi.Size() != int64(len(data)) {
				t.Fatalf("segment file changed to %v bytes (%v), want %d", fi.Size(), serr, len(data))
			}
			if _, torn := r.Torn(); torn {
				t.Fatal("the v2 frame was reported as a torn tail")
			}
			return err
		}
	}

	cases := []struct {
		name string
		run  func(t *testing.T) error
	}{
		{"wire.Decoder", func(t *testing.T) error {
			d := wire.NewDecoder(bytes.NewReader(append(bytes.Clone(v1), v2...)))
			if _, err := d.Decode(); err != nil {
				t.Fatal(err)
			}
			_, err := d.Decode()
			if d.Offset() != int64(len(v1)) {
				t.Fatalf("offset %d past a rejected frame, want %d", d.Offset(), len(v1))
			}
			return err
		}},
		{"segment.Reader", segmentReader(false)},
		{"segment.Reader with Repair", segmentReader(true)},
		{"cluster.Router", func(t *testing.T) error {
			tagged, err := wire.AppendTaggedFrame(nil, wire.V1JSONL, wire.Tag{Source: 1, Epoch: 1}, batch)
			if err != nil {
				t.Fatal(err)
			}
			r, err := cluster.NewRouter(cluster.RouterConfig{Expect: 1, OnBatch: func(uint64, []engine.OfficeAction) error {
				t.Error("router emitted a batch from a v2 frame")
				return nil
			}})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- r.Serve(ln) }()
			defer r.Close()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(asVersion2(tagged)); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				return err
			case <-time.After(10 * time.Second):
				t.Fatal("router did not fail within 10 s of a v2 frame")
				return nil
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(t)
			if !errors.Is(err, wire.ErrVersion) {
				t.Fatalf("got %v, want an error wrapping wire.ErrVersion", err)
			}
			if errors.Is(err, wire.ErrTorn) || errors.Is(err, wire.ErrCorrupt) || err == io.EOF {
				t.Fatalf("v2 frame misclassified: %v", err)
			}
		})
	}
}
