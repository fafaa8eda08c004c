package main

import (
	"fmt"
	"time"
)

// pct records the q-quantile of per-action latencies xs under name. A
// percentile the sample cannot support (fewer than ten samples beyond
// it) fails the run when required, except at smoke scale, where samples
// are small by design and the nearest-rank value is printed anyway.
func (r *result) pct(e *env, name string, xs []float64, q float64, required bool) {
	if v, ok := percentile(xs, q); ok {
		r.set(name, v, "ms")
		return
	}
	if e.smoke && len(xs) > 0 {
		r.set(name, nearestRank(xs, q), "ms")
		return
	}
	if required {
		r.fail("%s: %d samples cannot support that percentile (it needs %d beyond it)", name, len(xs), minBeyond)
	}
}

// dist records the median and tail of a per-slot timing in ms.
func (r *result) dist(prefix string, xs []float64) {
	r.set(prefix+"_p50_ms", median(xs), "ms")
	r.set(prefix+"_tail_ms", tail(xs), "ms")
}

// maxOf returns the largest value of xs (0 when empty).
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// liveRun is what a run measured while the daemons ran.
type liveRun struct {
	e   *env
	r   *result
	st  *slotTimes
	tap *tap
	// needP999 fails the run if it cannot support a p999.
	needP999 bool
	setups   []float64
	// before and after are the daemons' /metrics around the measured
	// window (one per ingesting daemon).
	before, after []promSample
	rss, cpu      float64
	// bytesKind selects the byte counters the wire metrics come from:
	// the segment log (single process) or the forward (cluster worker).
	bytesKind string
	// ref is the synchronous reference run over the same slots.
	ref    *reference
	tracer *liveTracer
}

// report sets the end-to-end metrics and the per-layer metrics the live
// run measures, and records the live spans.
func (l *liveRun) report() error {
	r, st := l.r, l.st
	if st.n() == 0 {
		return fmt.Errorf("no slot was sent")
	}
	r.set("setup_s", median(l.setups), "s")
	win := st.window().Seconds()
	dispatched := delta(l.before, l.after, "fadewich_ingest_dispatched_ticks_total")
	r.set("ticks_per_s", dispatched/win, "office-ticks/s")
	lat, err := measure(l.tap, st, l.ref)
	if err != nil {
		r.fail("latency attribution: %v", err)
		lat = &latencies{arrival: make([]time.Time, st.n())}
	}
	r.pct(l.e, "tick_to_action_p50_ms", lat.tickToAction, 0.5, true)
	r.pct(l.e, "tick_to_action_p99_ms", lat.tickToAction, 0.99, true)
	// p999 needs 10,000 samples. A serve-paced run of 30 s is sized to
	// collect them and fails without; cluster-paced, at half the tick
	// rate, prints it only when it happens to.
	r.pct(l.e, "tick_to_action_p999_ms", lat.tickToAction, 0.999, l.needP999)
	ingest := st.ingest()
	r.set("ingest_p50_ms", median(ingest), "ms")
	r.pct(l.e, "ingest_p99_ms", ingest, 0.99, false)
	r.set("rss_peak_mb", l.rss, "MiB")

	r.set("gen.lag_max_ms", maxOf(st.lags()), "ms")
	r.set("gen.offered_ticks_per_s", float64(r.Attempted)/win, "office-ticks/s")
	r.set("gen.action_samples", float64(len(lat.tickToAction)), "count")
	r.dist("serve.post", st.posts())
	r.dist("serve.deliver", lat.deliver)
	var total float64
	for _, a := range l.after {
		total += a["fadewich_ingest_dispatched_ticks_total"]
	}
	r.set("serve.cpu_s_per_mtick", l.cpu/(total/1e6), "s/Mtick")
	batches := delta(l.before, l.after, "fadewich_ingest_batches_total")
	actions := delta(l.before, l.after, "fadewich_ingest_actions_total")
	r.set("stream.batches", batches, "count")
	r.set("stream.ticks_per_batch", dispatched/batches, "office-ticks")
	r.set("stream.actions_per_batch", actions/batches, "count")
	logical := delta(l.before, l.after, `fadewich_logical_bytes_total{kind="`+l.bytesKind+`"}`)
	wired := delta(l.before, l.after, `fadewich_wire_bytes_total{kind="`+l.bytesKind+`"}`)
	r.set("wire.logical_bytes_per_action", logical/actions, "B")
	r.set("wire.wire_bytes_per_action", wired/actions, "B")

	r.set("segment.syncs", delta(l.before, l.after, "fadewich_segment_syncs_total"), "count")

	dropped := delta(l.before, l.after, "fadewich_ingest_dropped_ticks_total")
	r.set("stream.dropped_ticks", dropped, "count")
	if dropped > 0 {
		r.Failed += int64(dropped)
		r.fail("%v ticks dropped", dropped)
	}
	overflows := delta(l.before, l.after, "fadewich_actions_overflows_total")
	r.set("serve.overflows", overflows, "count")
	if overflows > 0 {
		r.fail("%v action-stream subscribers overflowed", overflows)
	}
	if int64(dispatched) != r.Attempted-r.Failed {
		r.fail("the daemons dispatched %v office-ticks of the %d offered", dispatched, r.Attempted)
	}
	if l.tracer != nil {
		l.tracer.report(r, st, lat)
	}
	return nil
}

// liveTracer records the live part of a traced run: a gen.post span
// around the POSTs of half the slots (spans are appended from the
// sending goroutine, which is what tracing costs), and after the run
// the gen.deliver spans from the tap. The untraced half of the same run
// is the baseline the overhead is measured against; the halves are
// interleaved, so drift in the machine's speed falls on both alike.
type liveTracer struct {
	sp *spans
}

func newLiveTracer(sp *spans) *liveTracer {
	if sp == nil {
		return nil
	}
	return &liveTracer{sp: sp}
}

// traced picks the slots a traced run records gen.post spans for: half
// of them, by a hash of the slot number rather than its parity, so any
// load that recurs every few slots lands on both halves.
func traced(s int) bool {
	return uint64(s)*0x9e3779b97f4a7c15>>63 == 1
}

// wrap returns send, recording a span around the traced slots.
func (lt *liveTracer) wrap(send func(s int) error) func(s int) error {
	if lt == nil {
		return send
	}
	return func(s int) error {
		if !traced(s) {
			return send(s)
		}
		start := time.Now()
		err := send(s)
		lt.sp.add("gen.post", "slot", s, start, time.Now())
		return err
	}
}

// report records the per-slot spans and the tracing overhead: the
// traced slots' mean tick→action latency against the untraced ones'.
// The mean, not the median: the daemon's POST handling runs in streaks
// of two speeds, and the median of either half jumps between the modes
// by more than tracing could cost.
func (lt *liveTracer) report(r *result, st *slotTimes, lat *latencies) {
	for s := 0; s < st.n(); s++ {
		end := st.done[s]
		if at := lat.arrival[s]; !at.IsZero() {
			lt.sp.add("gen.deliver", "slot", s, st.done[s], at)
			end = at
		}
		lt.sp.add("slot", "", s, st.due[s], end)
	}
	var on, off []float64
	for i, s := range lat.slot {
		if traced(s) {
			on = append(on, lat.tickToAction[i])
		} else {
			off = append(off, lat.tickToAction[i])
		}
	}
	if u := mean(off); u > 0 && len(on) > 0 {
		r.set("trace.overhead_pct", 100*(mean(on)-u)/u, "%")
	}
}
