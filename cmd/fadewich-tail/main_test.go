package main

import (
	"bytes"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"fadewich/internal/core"
	"fadewich/internal/engine"
	"fadewich/internal/segment"
	"fadewich/internal/wire"
)

func tact(office int, t float64) engine.OfficeAction {
	return engine.OfficeAction{
		Office: office,
		Action: core.Action{Type: core.ActionAlertEnter, Time: t, Workstation: 1},
	}
}

// syncBuffer is a bytes.Buffer safe to read while the renderer's
// goroutine writes it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// dial connects to ln and returns the connection.
func dial(t *testing.T, ln net.Listener) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// sendPlain writes one untagged frame carrying batch.
func sendPlain(t *testing.T, conn net.Conn, batch []engine.OfficeAction) {
	t.Helper()
	frame, err := wire.AppendFrame(nil, wire.V1JSONL, batch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// sendTagged writes one tagged frame for (src, epoch); final selects the
// end-of-stream frame.
func sendTagged(t *testing.T, conn net.Conn, src uint8, epoch uint64, final bool, batch []engine.OfficeAction) {
	t.Helper()
	frame, err := wire.AppendTaggedFrame(nil, wire.V1JSONL, wire.Tag{Source: src, Epoch: epoch, Final: final}, batch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// TestServeListenerInterleavesConnections pins the plain -listen accept
// loop's documented semantics: concurrent connections are all served,
// frames interleave at whole-frame granularity (every frame's actions
// surface exactly once, contiguously), a connection carrying garbage is
// dropped without stopping the listener, and serveListener returns only
// when the listener closes.
func TestServeListenerInterleavesConnections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var out syncBuffer
	render, err := newRenderer(&out, "jsonl")
	if err != nil {
		t.Fatal(err)
	}
	doneServe := make(chan error, 1)
	go func() { doneServe <- serveListener(ln, filter{}, render) }()

	c1 := dial(t, ln)
	c2 := dial(t, ln)
	b1 := []engine.OfficeAction{tact(1, 1.0), tact(1, 2.0)}
	b2 := []engine.OfficeAction{tact(2, 1.5)}
	b3 := []engine.OfficeAction{tact(3, 9.0)}
	sendPlain(t, c1, b1)
	sendPlain(t, c2, b2)

	// A third connection delivering garbage must not take the listener
	// (or the healthy connections) down.
	c3 := dial(t, ln)
	if _, err := c3.Write([]byte("not a wire frame at all")); err != nil {
		t.Fatal(err)
	}
	c3.Close()

	sendPlain(t, c1, b3)
	c1.Close()
	c2.Close()

	want := map[string]bool{}
	for _, b := range [][]engine.OfficeAction{b1, b2, b3} {
		want[string(wire.AppendJSONL(nil, b))] = false
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := out.String()
		// Every frame must appear exactly once and contiguously —
		// whole-frame granularity means a frame's lines are never split
		// by another connection's output.
		all := true
		for block := range want {
			if strings.Count(got, block) != 1 {
				all = false
				break
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("frames missing or split after garbage connection; output:\n%s", got)
		}
		time.Sleep(10 * time.Millisecond)
	}

	select {
	case err := <-doneServe:
		t.Fatalf("serveListener returned (%v) while the listener was still open", err)
	default:
	}
	ln.Close()
	if err := <-doneServe; err != nil {
		t.Fatalf("serveListener: %v", err)
	}
}

// TestRouteOnListener drives route mode end to end in-process: two
// tagged worker streams arrive out of phase and the rendered output is
// the byte-exact globally-ordered merge.
func TestRouteOnListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	render, err := newRenderer(&out, "jsonl")
	if err != nil {
		t.Fatal(err)
	}
	segDir := t.TempDir()
	doneServe := make(chan error, 1)
	go func() {
		doneServe <- routeOnListener(ln, tailOptions{expect: 2, segDir: segDir}, filter{}, render)
	}()

	w1 := dial(t, ln)
	w2 := dial(t, ln)
	// Epoch 1: w1 has offices 0,2; w2 has office 1. w2 runs an epoch
	// ahead before w1 catches up — the watermark must hold epoch 2.
	sendTagged(t, w1, 1, 1, false, []engine.OfficeAction{tact(0, 1.0), tact(2, 3.0)})
	sendTagged(t, w2, 2, 1, false, []engine.OfficeAction{tact(1, 2.0)})
	sendTagged(t, w2, 2, 2, false, []engine.OfficeAction{tact(1, 4.5)})
	sendTagged(t, w1, 1, 2, false, []engine.OfficeAction{tact(0, 4.0)})
	sendTagged(t, w1, 1, 3, true, nil)
	sendTagged(t, w2, 2, 3, true, nil)
	w1.Close()
	w2.Close()

	if err := <-doneServe; err != nil {
		t.Fatalf("routeOnListener: %v", err)
	}
	var want []byte
	want = wire.AppendJSONL(want, []engine.OfficeAction{tact(0, 1.0), tact(1, 2.0), tact(2, 3.0)})
	want = wire.AppendJSONL(want, []engine.OfficeAction{tact(0, 4.0), tact(1, 4.5)})
	if got := out.String(); got != string(want) {
		t.Fatalf("merged stream mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// The -segments log must replay to the same merged stream.
	r, err := segment.OpenDir(segDir, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var segBytes []byte
	for {
		acts, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("replaying route segments: %v", err)
		}
		segBytes = wire.AppendJSONL(segBytes, acts)
	}
	if string(segBytes) != string(want) {
		t.Fatalf("segment replay mismatch:\ngot:\n%s\nwant:\n%s", segBytes, want)
	}
}

// TestRunFlagValidation pins the CLI surface's mutual-exclusion rules.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  tailOptions
		args []string
	}{
		{"route without listen", tailOptions{route: true, expect: 2, format: "table"}, nil},
		{"route without expect", tailOptions{route: true, listen: "127.0.0.1:0", format: "table"}, nil},
		{"route with follow", tailOptions{route: true, listen: "127.0.0.1:0", expect: 2, follow: true, format: "table"}, nil},
		{"expect without route", tailOptions{listen: "127.0.0.1:0", expect: 2, format: "table"}, nil},
		{"forward without route", tailOptions{forward: "127.0.0.1:1", format: "table"}, []string{"dir"}},
		{"segments without route", tailOptions{segDir: "x", format: "table"}, []string{"dir"}},
		{"listen with dir", tailOptions{listen: "127.0.0.1:0", format: "table"}, []string{"dir"}},
		{"repair with listen", tailOptions{listen: "127.0.0.1:0", repair: true, format: "table"}, nil},
		{"repair with follow", tailOptions{repair: true, follow: true, format: "table"}, []string{"dir"}},
		{"no source", tailOptions{format: "table"}, nil},
		{"bad format", tailOptions{listen: "127.0.0.1:0", format: "xml"}, nil},
	}
	for _, tc := range cases {
		if err := run(tc.opt, tc.args); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
