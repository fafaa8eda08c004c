package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"fadewich/internal/serve"
)

const (
	// trainWindow is the ticks per office of one training POST.
	trainWindow = 500
	// queueCap is the daemons' per-office queue. It exceeds the ticks
	// per office of any POST, so the Block policy never dispatches part
	// of a POST early and dispatch stays strictly flush-driven.
	queueCap = 4096
	// setups is how many times a full-scale run sets the system up; the
	// run reports the median and measures on the last one.
	setups = 3
)

// shape is a workload's fleet and traffic.
type shape struct {
	offices int
	// slot is the open-loop slot (epoch) length.
	slot time.Duration
	// perSlot is the ticks per office of one slot (one POST).
	perSlot int
}

// servePaced: an open loop of many small dispatches at a fixed rate —
// 128 offices, each sent 400 ticks/s (80 times the paper's 5 Hz), in
// 20 ms slots: 51,200 office-ticks/s — so per-dispatch fixed costs set
// latency: HTTP round trip, flush handshake, pump, broadcast and segment
// append. It does not stand for a larger fleet at 5 Hz: per-office
// state and per-office costs scale with the office count, which here is
// small.
func servePaced(ctx context.Context, e *env, rs runSpec) (*result, error) {
	sh := shape{offices: 128, slot: 20 * time.Millisecond, perSlot: 8}
	if e.smoke {
		sh.offices = 8
	}
	ds, err := generate(rs.seed)
	if err != nil {
		return nil, err
	}
	window := time.Duration(rs.seconds) * time.Second
	slots := int(window / sh.slot)
	p := newPlan(ds, rs.seed, sh.offices, trainWindow, sh.perSlot)
	specPath, rawSpec, err := writeSpec(e, p)
	if err != nil {
		return nil, err
	}
	all := allOffices(sh.offices)
	bodies := encodeSlots(p, all, slots)

	c := newIngestClient()
	var setupTimes []float64
	var d *serveDaemon
	for k := 0; k < setupCount(e); k++ {
		start := time.Now()
		d, err = startServe(ctx, e, c, p, specPath, filepath.Join(e.work, fmt.Sprintf("serve-%d", k)))
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if k < setupCount(e)-1 {
			if err := d.proc.drain(); err != nil {
				return nil, err
			}
		}
	}
	defer d.proc.kill()

	before, err := scrape(ctx, c, d.base)
	if err != nil {
		return nil, err
	}
	var sendErr error
	tracer := newLiveTracer(rs.spans)
	st := drive(ctx, sh.slot, slots, tracer.wrap(func(s int) error {
		b := bodies[s]
		err := postTicks(ctx, c, d.base, b.b, 0, b.ticks, b.inputs)
		if err != nil && sendErr == nil {
			sendErr = err
		}
		return err
	}))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := scrape(ctx, c, d.base)
	if err != nil {
		return nil, err
	}
	rss, err := d.proc.peakRSS()
	if err != nil {
		return nil, err
	}
	if err := d.proc.drain(); err != nil {
		return nil, err
	}
	if err := awaitTap(d.tapEnd); err != nil {
		return nil, err
	}

	r := newResult()
	for s := 0; s < st.n(); s++ {
		r.Attempted += int64(bodies[s].ticks)
		if st.failed[s] {
			r.Failed += int64(bodies[s].ticks)
		}
	}
	if sendErr != nil {
		r.fail("ingest: %v", sendErr)
	}
	cpu, err := d.proc.cpu()
	if err != nil {
		return nil, err
	}
	ref, err := runReference(ctx, rawSpec, p, st.n())
	if err != nil {
		return nil, err
	}
	live := liveRun{
		e: e, r: r, st: st, tap: d.tap, needP999: true, setups: setupTimes,
		before: []promSample{before}, after: []promSample{after},
		rss: rss, cpu: cpu, bytesKind: "segment", ref: ref, tracer: tracer,
	}
	if err := live.report(); err != nil {
		return nil, err
	}
	if err := verify(r, d.tap, ref); err != nil {
		return nil, err
	}
	if rs.spans != nil {
		if err := replay(ctx, e, rs, p, rawSpec, st, r, paritySplit(sh.offices)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// body is one pre-encoded POST with the line counts the daemon must
// acknowledge.
type body struct {
	b             []byte
	ticks, inputs int
}

// encodeSlots renders the online slot bodies for the given offices
// before any clock starts.
func encodeSlots(p *plan, offices []int, n int) []body {
	out := make([]body, n)
	for s := range out {
		b, t, in := p.appendBody(nil, p.onlineSlot(s), offices)
		out[s] = body{b, t, in}
	}
	return out
}

// writeSpec writes the fleet spec every setup loads and returns it.
func writeSpec(e *env, p *plan) (path string, raw []byte, err error) {
	spec := serve.Spec{Defaults: officeDefaults()}
	for _, n := range p.names {
		spec.Offices = append(spec.Offices, serve.OfficeSpec{Name: n})
	}
	if raw, err = json.Marshal(spec); err != nil {
		return "", nil, err
	}
	path = filepath.Join(e.work, "fleet.json")
	return path, raw, os.WriteFile(path, raw, 0o644)
}

// serveDaemon is one running fadewich-serve with its tapped stream.
type serveDaemon struct {
	proc   *proc
	base   string
	tap    *tap
	tapEnd <-chan error
}

// startServe launches a daemon, subscribes the tap and trains every
// office: one set-up.
func startServe(ctx context.Context, e *env, c *http.Client, p *plan, specPath, dir string) (*serveDaemon, error) {
	if err := freshDir(dir); err != nil {
		return nil, err
	}
	pr, err := startProc(ctx, "fadewich-serve", "fadewich-serve: listening on ", e.bins["fadewich-serve"],
		"-spec", specPath, "-listen", "127.0.0.1:0", "-segments", filepath.Join(dir, "segments"),
		"-codec", "1", "-queue", strconv.Itoa(queueCap))
	if err != nil {
		return nil, err
	}
	d := &serveDaemon{proc: pr, tap: &tap{}}
	err = func() error {
		addr, err := pr.addr()
		if err != nil {
			return err
		}
		d.base = "http://" + addr
		if d.tapEnd, err = subscribe(ctx, d.base, d.tap); err != nil {
			return err
		}
		all := allOffices(len(p.names))
		var buf []byte
		for w := 0; w < p.trainWindows(); w++ {
			var ticks, inputs int
			buf, ticks, inputs = p.appendBody(buf[:0], p.trainingWindow(w), all)
			if err := postTicks(ctx, c, d.base, buf, 0, ticks, inputs); err != nil {
				return fmt.Errorf("training window %d: %w", w, err)
			}
		}
		return trainAll(ctx, c, d.base, len(all))
	}()
	if err != nil {
		pr.kill()
		return nil, err
	}
	return d, nil
}

// setupCount is how many set-ups a run times.
func setupCount(e *env) int {
	if e.smoke {
		return 1
	}
	return setups
}
