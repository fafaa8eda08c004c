package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"time"

	"fadewich/internal/cluster"
	"fadewich/internal/engine"
	"fadewich/internal/segment"
	"fadewich/internal/stream"
	"fadewich/internal/wire"
)

// split says how the replay divides each batch among worker sources:
// source[o] is office o's worker (1-based). A single-process workload
// splits by office parity, as if two workers shared its fleet, so the
// cluster layers are measured on every workload's load.
type split struct {
	source   []uint8
	sources  int
	compress bool // workers deflate their forward and segment frames
}

func paritySplit(offices int) split {
	s := split{sources: 2, source: make([]uint8, offices)}
	for o := range s.source {
		s.source[o] = uint8(1 + o%2)
	}
	return s
}

// runs divides a batch into per-source runs, each keeping batch order.
func (sp split) runs(batch []engine.OfficeAction) [][]engine.OfficeAction {
	runs := make([][]engine.OfficeAction, sp.sources)
	for _, a := range batch {
		i := sp.source[a.Office] - 1
		runs[i] = append(runs[i], a)
	}
	return runs
}

// replay drives the run's slots through each layer's public calls, in
// process, timing every call: a traced run's per-layer part. It runs
// after the daemons have exited, so it cannot perturb what they
// measured.
func replay(ctx context.Context, e *env, rs runSpec, p *plan, rawSpec []byte, st *slotTimes, r *result, sp split) error {
	rp, err := newReplayer(e, rawSpec, p, sp, rs.spans)
	if err != nil {
		return err
	}
	defer rp.close()
	all := allOffices(len(p.names))
	for s := 0; s < st.n(); s++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		w := p.onlineSlot(s)
		n0 := len(rp.ref.batches)
		t0 := time.Now()
		if err := p.push(rp.ref.ing, w, all); err != nil {
			return fmt.Errorf("replay push: %w", err)
		}
		t1 := time.Now()
		if err := rp.ref.ing.Flush(); err != nil {
			return fmt.Errorf("replay flush: %w", err)
		}
		t2 := time.Now()
		rs.spans.add("stream.push", "replay", s, t0, t1)
		rs.spans.add("stream.flush", "replay", s, t1, t2)
		var batch []engine.OfficeAction
		if len(rp.ref.batches) > n0 {
			batch = rp.ref.batches[n0]
		}
		if err := rp.slot(r, s, w, batch, t1.Sub(t0), t2.Sub(t1), w.n*len(all)); err != nil {
			return err
		}
		rs.spans.add("replay", "", s, t0, time.Now())
	}
	return rp.report(r, st)
}

// replayer times the layers on the replayed slots.
type replayer struct {
	ref   *reference    // the ingestor whose push and flush are timed
	fleet *engine.Fleet // a second fleet fed the identical batches
	seg   *stream.SegmentSink
	split split
	sp    *spans
	route *routeTap

	// Per-slot timings (ms) and totals.
	push, flush, selfStream, run, segWrite, segSync, routeHold []float64
	pushNs, runNs, encodeNs, decodeNs, mergeNs                 float64
	ticks, actions, encodeActions                              int
}

func newReplayer(e *env, rawSpec []byte, p *plan, sp split, spans *spans) (*replayer, error) {
	rp := &replayer{split: sp, sp: spans}
	if err := rp.open(e, rawSpec, p); err != nil {
		rp.close()
		return nil, err
	}
	return rp, nil
}

// open trains the timed ingestor and the second fleet on the training
// day and opens the segment log and the router.
func (rp *replayer) open(e *env, rawSpec []byte, p *plan) error {
	var err error
	if rp.ref, err = newReference(rawSpec); err != nil {
		return err
	}
	if err := rp.ref.train(p); err != nil {
		return err
	}
	second, err := newReference(rawSpec)
	if err != nil {
		return err
	}
	// Only the second reference's fleet is used, driven directly: close
	// its ingestor now (it has dispatched nothing).
	second.close()
	rp.fleet = second.fleet
	for w := 0; w < p.trainWindows(); w++ {
		if _, err := rp.fleet.Run(fleetBatch(p.trainingWindow(w), len(p.names))); err != nil {
			return fmt.Errorf("replay training: %w", err)
		}
	}
	if err := rp.fleet.FinishTraining(); err != nil {
		return fmt.Errorf("replay training: %w", err)
	}
	rp.seg, err = stream.NewSegmentSink(segment.Config{
		Dir:      filepath.Join(e.work, "replay-segments"),
		Fsync:    segment.FsyncRotate,
		Version:  wire.V1JSONL,
		Compress: rp.split.compress,
	})
	if err != nil {
		return err
	}
	rp.route, err = newRouteTap(rp.split.sources)
	return err
}

// close releases whatever open got to.
func (rp *replayer) close() {
	if rp.ref != nil {
		rp.ref.close()
	}
	if rp.seg != nil {
		rp.seg.Close()
	}
	if rp.route != nil {
		rp.route.close()
	}
}

// fleetBatch builds the Fleet.Run arguments a window's pushes produce:
// each office's ticks, and its inputs placed before the tick they
// precede.
func fleetBatch(w window, offices int) ([]engine.OfficeBatch, []engine.InputEvent) {
	batches := make([]engine.OfficeBatch, offices)
	var evs []engine.InputEvent
	for o := range batches {
		ticks := make([][]float64, 0, w.n)
		for step := 0; step < w.n; step++ {
			d, t, ok := w.at(o, step)
			if !ok {
				continue
			}
			for _, ws := range d.inputs[t] {
				evs = append(evs, engine.InputEvent{Office: o, Workstation: ws, Tick: len(ticks)})
			}
			ticks = append(ticks, d.rows[t])
		}
		batches[o] = engine.OfficeBatch{Office: o, Ticks: ticks}
	}
	return batches, evs
}

// slot replays one slot below the ingestor: the second fleet's run, the
// frame encode, the segment append and sync, the decode, the merge of
// the per-worker runs and the router's watermark hold.
func (rp *replayer) slot(r *result, s int, w window, batch []engine.OfficeAction, push, flush time.Duration, ticks int) error {
	rp.push = append(rp.push, ms(push))
	rp.flush = append(rp.flush, ms(flush))
	rp.pushNs += float64(push)
	rp.ticks += ticks

	fb, evs := fleetBatch(w, len(rp.split.source))
	t0 := time.Now()
	got, err := rp.fleet.Run(fb, evs)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("replay run: %w", err)
	}
	rp.sp.add("engine.run", "replay", s, t0, t1)
	rp.run = append(rp.run, ms(t1.Sub(t0)))
	rp.selfStream = append(rp.selfStream, ms(flush-t1.Sub(t0)))
	rp.runNs += float64(t1.Sub(t0))
	rp.actions += len(got)
	if !sameActions(got, batch) {
		r.fail("slot %d: a second fleet fed the identical batch emitted %d actions, the ingestor %d", s, len(got), len(batch))
	}

	runs := rp.split.runs(batch)
	epoch := uint64(s + 1)
	frames := make([][]byte, len(runs))
	for i, run := range runs {
		tag := wire.Tag{Source: uint8(i + 1), Epoch: epoch}
		t0 := time.Now()
		if rp.split.compress {
			frames[i], _, err = wire.AppendTaggedFrameCompressed(nil, wire.V1JSONL, tag, run, 0)
		} else {
			frames[i], err = wire.AppendTaggedFrame(nil, wire.V1JSONL, tag, run)
		}
		if err != nil {
			return err
		}
		if len(run) > 0 {
			rp.encodeNs += float64(time.Since(t0))
			rp.encodeActions += len(run)
			rp.sp.add("wire.encode", "replay", s, t0, time.Now())
		}
	}
	if len(batch) > 0 {
		eb := stream.NewEncodedBatch(batch)
		if _, err := eb.Frame(wire.V1JSONL, rp.split.compress); err != nil {
			return err
		}
		t0 := time.Now()
		if err := rp.seg.WriteEncoded(eb); err != nil {
			return err
		}
		t1 := time.Now()
		if err := rp.seg.Sync(); err != nil {
			return err
		}
		t2 := time.Now()
		rp.sp.add("segment.write", "replay", s, t0, t1)
		rp.sp.add("segment.sync", "replay", s, t1, t2)
		rp.segWrite = append(rp.segWrite, ms(t1.Sub(t0)))
		rp.segSync = append(rp.segSync, ms(t2.Sub(t1)))

		t0 = time.Now()
		var decoded []engine.OfficeAction
		for _, f := range frames {
			acts, err := wire.NewDecoder(bytes.NewReader(f)).Decode()
			if err != nil {
				return fmt.Errorf("replay decode: %w", err)
			}
			decoded = append(decoded, acts...)
		}
		rp.decodeNs += float64(time.Since(t0))
		rp.sp.add("wire.decode", "replay", s, t0, time.Now())
		if len(decoded) != len(batch) {
			r.fail("slot %d: decoded %d actions from %d encoded", s, len(decoded), len(batch))
		}

		t0 = time.Now()
		merged := engine.MergeRuns(runs, 0)
		rp.mergeNs += float64(time.Since(t0))
		rp.sp.add("cluster.merge", "replay", s, t0, time.Now())
		if !sameActions(merged, batch) {
			r.fail("slot %d: merging the per-worker runs did not rebuild the batch", s)
		}
	}

	hold, err := rp.route.epoch(epoch, frames, len(batch) > 0)
	if err != nil {
		return err
	}
	if len(batch) > 0 {
		rp.routeHold = append(rp.routeHold, ms(hold))
		end := time.Now()
		rp.sp.add("cluster.route", "replay", s, end.Add(-hold), end)
	}
	return nil
}

// report sets the replay's per-layer metrics.
func (rp *replayer) report(r *result, st *slotTimes) error {
	r.set("stream.push_us_per_tick", rp.pushNs/1e3/float64(rp.ticks), "us")
	r.dist("stream.flush", rp.flush)
	r.set("stream.self_p50_ms", median(rp.selfStream), "ms")
	r.dist("engine.run", rp.run)
	r.set("engine.ns_per_tick", rp.runNs/float64(rp.ticks), "ns")
	r.set("engine.actions", float64(rp.actions), "count")
	if rp.encodeActions > 0 {
		r.set("wire.encode_ns_per_action", rp.encodeNs/float64(rp.encodeActions), "ns")
		r.set("wire.decode_ns_per_action", rp.decodeNs/float64(rp.encodeActions), "ns")
		r.set("cluster.merge_ns_per_action", rp.mergeNs/float64(rp.encodeActions), "ns")
		r.set("segment.bytes_per_action", float64(rp.seg.Stats().WireBytes)/float64(rp.encodeActions), "B")
	}
	r.set("segment.write_tail_ms", tail(rp.segWrite), "ms")
	r.set("segment.sync_tail_ms", tail(rp.segSync), "ms")
	r.dist("cluster.route", rp.routeHold)
	// serve self time: a slot's POST round trip minus the push and flush
	// the same slot costs in process (the replay's timings of the calls
	// the daemon makes for it).
	posts := st.posts()
	self := make([]float64, len(rp.push))
	for s := range self {
		self[s] = posts[s] - rp.push[s] - rp.flush[s]
	}
	r.set("serve.self_p50_ms", median(self), "ms")
	return nil
}

// sameActions reports whether two batches are identical.
func sameActions(a, b []engine.OfficeAction) bool {
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

// routeTap is an in-process cluster.Router fed the per-worker tagged
// frames over loopback, one connection per source.
type routeTap struct {
	router  *cluster.Router
	conns   []net.Conn
	emitted chan uint64
	served  chan error
}

func newRouteTap(sources int) (*routeTap, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// The replay waits for each non-empty epoch before writing the next,
	// so at most one emit is outstanding.
	rt := &routeTap{emitted: make(chan uint64, 1), served: make(chan error, 1)}
	rt.router, err = cluster.NewRouter(cluster.RouterConfig{
		Expect: sources,
		OnBatch: func(epoch uint64, _ []engine.OfficeAction) error {
			rt.emitted <- epoch
			return nil
		},
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	go func() { rt.served <- rt.router.Serve(ln) }()
	for i := 0; i < sources; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			rt.close()
			return nil, err
		}
		rt.conns = append(rt.conns, c)
	}
	return rt, nil
}

// epoch writes one epoch's frames, one per source, and when the merged
// epoch is non-empty waits for the router to emit it. It returns the
// hold: last frame written → epoch emitted.
func (rt *routeTap) epoch(epoch uint64, frames [][]byte, nonEmpty bool) (time.Duration, error) {
	for i, f := range frames {
		if _, err := rt.conns[i].Write(f); err != nil {
			return 0, fmt.Errorf("replay route: %w", err)
		}
	}
	written := time.Now()
	if !nonEmpty {
		return 0, nil
	}
	select {
	case got := <-rt.emitted:
		if got != epoch {
			return 0, fmt.Errorf("replay route: router emitted epoch %d, want %d", got, epoch)
		}
		return time.Since(written), nil
	case err := <-rt.served:
		return 0, fmt.Errorf("replay route: router stopped: %v", err)
	case <-time.After(drainTimeout):
		return 0, fmt.Errorf("replay route: epoch %d not emitted within %v", epoch, drainTimeout)
	}
}

// close sends every source's final frame and waits for the router to
// complete.
func (rt *routeTap) close() {
	for i, c := range rt.conns {
		if f, err := wire.AppendTaggedFrame(nil, wire.V1JSONL, wire.Tag{Source: uint8(i + 1), Epoch: 1 << 31, Final: true}, nil); err == nil {
			_, _ = c.Write(f) // a failed write surfaces as the router not completing, below
		}
		c.Close()
	}
	select {
	case <-rt.served:
	case <-time.After(drainTimeout):
		rt.router.Close()
		<-rt.served
	}
}
