package cluster

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"fadewich/internal/core"
	"fadewich/internal/engine"
	"fadewich/internal/wire"
)

// act builds one action for office gid at time t.
func act(gid int, t float64) engine.OfficeAction {
	return engine.OfficeAction{Office: gid, Action: core.Action{Time: t, Type: core.ActionAlertEnter}}
}

// emitted collects the router's output under a lock.
type emitted struct {
	mu      sync.Mutex
	epochs  []uint64
	batches [][]engine.OfficeAction
}

func (e *emitted) onBatch(epoch uint64, batch []engine.OfficeAction) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.epochs = append(e.epochs, epoch)
	e.batches = append(e.batches, append([]engine.OfficeAction(nil), batch...))
	return nil
}

func (e *emitted) snapshot() ([]uint64, [][]engine.OfficeAction) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]uint64(nil), e.epochs...), append([][]engine.OfficeAction(nil), e.batches...)
}

// startRouter serves a router on an ephemeral port and returns it, its
// address and a channel delivering Serve's result.
func startRouter(t *testing.T, expect int, sink *emitted) (*Router, string, chan error) {
	t.Helper()
	r, err := NewRouter(RouterConfig{Expect: expect, OnBatch: sink.onBatch})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.Serve(ln) }()
	t.Cleanup(func() { r.Close() })
	return r, ln.Addr().String(), done
}

// dial connects to the router and waits until Serve has accepted the
// connection. Only an accepted connection holds the watermark, so
// without the wait a frame sent on an earlier connection could be
// merged before this one is counted, and the order the test scripts
// would be a race against the accept loop.
func dial(t *testing.T, r *Router, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	local := conn.LocalAddr().String()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		r.mu.Lock()
		accepted := false
		for c := range r.conns {
			accepted = accepted || c.RemoteAddr().String() == local
		}
		r.mu.Unlock()
		if accepted {
			return conn
		}
		if time.Now().After(deadline) {
			t.Fatal("router never accepted the connection")
		}
	}
}

// send writes one tagged frame on the connection.
func send(t *testing.T, conn net.Conn, tag wire.Tag, batch []engine.OfficeAction) {
	t.Helper()
	frame, err := wire.AppendTaggedFrame(nil, wire.V1JSONL, tag, batch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// finish sends the source's final frame and closes the connection.
func finish(t *testing.T, conn net.Conn, source uint8, epoch uint64) {
	t.Helper()
	send(t, conn, wire.Tag{Source: source, Epoch: epoch, Final: true}, nil)
	conn.Close()
}

func waitServe(t *testing.T, done chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("router: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("router did not complete")
	}
}

// TestRouterMergesEpochs: two sources, interleaved times within each
// epoch; the routed output must be each epoch's runs merged in
// (time, office) order, epochs ascending.
func TestRouterMergesEpochs(t *testing.T) {
	var sink emitted
	r, addr, done := startRouter(t, 2, &sink)
	c1 := dial(t, r, addr)
	c2 := dial(t, r, addr)
	send(t, c1, wire.Tag{Source: 1, Epoch: 1}, []engine.OfficeAction{act(0, 1.0), act(0, 3.0)})
	send(t, c2, wire.Tag{Source: 2, Epoch: 1}, []engine.OfficeAction{act(1, 2.0)})
	send(t, c1, wire.Tag{Source: 1, Epoch: 2}, nil) // empty epoch still aligns
	send(t, c2, wire.Tag{Source: 2, Epoch: 2}, []engine.OfficeAction{act(1, 4.0)})
	finish(t, c1, 1, 3)
	finish(t, c2, 2, 3)
	waitServe(t, done)

	epochs, batches := sink.snapshot()
	if len(epochs) != 2 || epochs[0] != 1 || epochs[1] != 2 {
		t.Fatalf("emitted epochs %v, want [1 2]", epochs)
	}
	want1 := []engine.OfficeAction{act(0, 1.0), act(1, 2.0), act(0, 3.0)}
	if len(batches[0]) != len(want1) {
		t.Fatalf("epoch 1 batch %v", batches[0])
	}
	for i := range want1 {
		if batches[0][i] != want1[i] {
			t.Fatalf("epoch 1 action %d = %+v, want %+v", i, batches[0][i], want1[i])
		}
	}
	if len(batches[1]) != 1 || batches[1][0] != act(1, 4.0) {
		t.Fatalf("epoch 2 batch %v", batches[1])
	}
}

// TestRouterDedupesResends: a redialling sink resends the frame whose
// write failed; when the original did arrive, the router must drop the
// copy.
func TestRouterDedupesResends(t *testing.T) {
	var sink emitted
	r, addr, done := startRouter(t, 1, &sink)
	c1 := dial(t, r, addr)
	send(t, c1, wire.Tag{Source: 1, Epoch: 1}, []engine.OfficeAction{act(0, 1.0)})
	c1.Close() // sink dies and redials

	c2 := dial(t, r, addr)
	send(t, c2, wire.Tag{Source: 1, Epoch: 1}, []engine.OfficeAction{act(0, 1.0)}) // the resend
	send(t, c2, wire.Tag{Source: 1, Epoch: 2}, []engine.OfficeAction{act(0, 2.0)})
	finish(t, c2, 1, 3)
	waitServe(t, done)

	epochs, _ := sink.snapshot()
	if len(epochs) != 2 || epochs[0] != 1 || epochs[1] != 2 {
		t.Fatalf("emitted epochs %v, want [1 2] (resend deduped)", epochs)
	}
}

// TestRouterHoldsForUnidentifiedConn: an open connection that has not
// yet sent a tagged frame must hold the watermark — this is the
// join-safety mechanism: a joining worker dials before it is fed, so
// no epoch it participates in can be emitted without it.
func TestRouterHoldsForUnidentifiedConn(t *testing.T) {
	var sink emitted
	r, addr, done := startRouter(t, 3, &sink)
	c1 := dial(t, r, addr)
	c2 := dial(t, r, addr)
	send(t, c1, wire.Tag{Source: 1, Epoch: 1}, []engine.OfficeAction{act(0, 1.0)})
	send(t, c2, wire.Tag{Source: 2, Epoch: 1}, []engine.OfficeAction{act(1, 1.5)})
	// Wait until epoch 1 is out, so the join below is the only hold.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if epochs, _ := sink.snapshot(); len(epochs) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("epoch 1 never emitted")
		}
		time.Sleep(time.Millisecond)
	}

	c3 := dial(t, r, addr) // the joiner: connected, not yet identified
	// From here on emission must stall even when sources 1 and 2
	// complete epoch 2.
	send(t, c1, wire.Tag{Source: 1, Epoch: 2}, []engine.OfficeAction{act(0, 2.0)})
	send(t, c2, wire.Tag{Source: 2, Epoch: 2}, []engine.OfficeAction{act(1, 2.5)})
	time.Sleep(100 * time.Millisecond)
	if epochs, _ := sink.snapshot(); len(epochs) != 1 {
		t.Fatalf("epoch 2 emitted while the joiner was unidentified (epochs %v)", epochs)
	}
	// The joiner identifies at its join epoch; the merge resumes and
	// epoch 2 includes its run.
	send(t, c3, wire.Tag{Source: 3, Epoch: 2}, []engine.OfficeAction{act(2, 2.2)})
	finish(t, c1, 1, 3)
	finish(t, c2, 2, 3)
	finish(t, c3, 3, 3)
	waitServe(t, done)

	epochs, batches := sink.snapshot()
	if len(epochs) != 2 || epochs[1] != 2 {
		t.Fatalf("emitted epochs %v, want [1 2]", epochs)
	}
	want := []engine.OfficeAction{act(0, 2.0), act(2, 2.2), act(1, 2.5)}
	if len(batches[1]) != len(want) {
		t.Fatalf("epoch 2 batch %v, want %v", batches[1], want)
	}
	for i := range want {
		if batches[1][i] != want[i] {
			t.Fatalf("epoch 2 action %d = %+v, want %+v", i, batches[1][i], want[i])
		}
	}
}

// TestRouterFinalReleasesWatermark: a source that has gone final can
// never lag the merge again, so the remaining sources' epochs flow
// without it.
func TestRouterFinalReleasesWatermark(t *testing.T) {
	var sink emitted
	r, addr, done := startRouter(t, 2, &sink)
	c1 := dial(t, r, addr)
	c2 := dial(t, r, addr)
	send(t, c1, wire.Tag{Source: 1, Epoch: 1}, []engine.OfficeAction{act(0, 1.0)})
	send(t, c2, wire.Tag{Source: 2, Epoch: 1}, []engine.OfficeAction{act(1, 1.1)})
	finish(t, c2, 2, 2) // source 2 drains early
	send(t, c1, wire.Tag{Source: 1, Epoch: 2}, []engine.OfficeAction{act(0, 2.0)})
	send(t, c1, wire.Tag{Source: 1, Epoch: 3}, []engine.OfficeAction{act(0, 3.0)})
	finish(t, c1, 1, 4)
	waitServe(t, done)

	epochs, _ := sink.snapshot()
	if len(epochs) != 3 {
		t.Fatalf("emitted epochs %v, want [1 2 3]", epochs)
	}
}

// TestRouterRejectsEpochGap: the tagged sink guarantees sequential
// delivery, so a skipped epoch means a lost frame — a hard error.
func TestRouterRejectsEpochGap(t *testing.T) {
	var sink emitted
	r, err := NewRouter(RouterConfig{Expect: 1, OnBatch: sink.onBatch})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.Serve(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send(t, conn, wire.Tag{Source: 1, Epoch: 1}, []engine.OfficeAction{act(0, 1.0)})
	send(t, conn, wire.Tag{Source: 1, Epoch: 3}, []engine.OfficeAction{act(0, 3.0)})
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "skipped") {
			t.Fatalf("router returned %v, want an epoch-gap error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("router did not fail on the epoch gap")
	}
}

// TestRouterRejectsUntaggedFrames: a plain forwarder pointed at the
// router port must fail loudly, not silently merge unattributed data.
func TestRouterRejectsUntaggedFrames(t *testing.T) {
	var sink emitted
	r, err := NewRouter(RouterConfig{Expect: 1, OnBatch: sink.onBatch})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.Serve(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := wire.AppendFrame(nil, wire.V1JSONL, []engine.OfficeAction{act(0, 1.0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "untagged") {
			t.Fatalf("router returned %v, want an untagged-frame error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("router did not fail on the untagged frame")
	}
}
