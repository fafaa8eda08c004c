package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"fadewich/internal/cluster"
)

// clusterPaced: the scale-out path single-process mode skips — a
// coordinator, two workers forwarding tagged, compressed frames and a
// fadewich-tail router merging them by epoch watermark. 128 offices,
// 50 ms epochs of 10 ticks per office (each office sent 200 ticks/s, 40
// times the paper's 5 Hz; 25,600 office-ticks/s), each epoch POSTed to
// both workers in turn; latency is taken at the router's output, so the
// slower worker sets it.
func clusterPaced(ctx context.Context, e *env, rs runSpec) (*result, error) {
	sh := shape{offices: 128, slot: 50 * time.Millisecond, perSlot: 10}
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

	c := newIngestClient()
	var setupTimes []float64
	var cl *clusterRun
	for k := 0; k < setupCount(e); k++ {
		start := time.Now()
		cl, err = startCluster(ctx, e, c, p, specPath, filepath.Join(e.work, fmt.Sprintf("cluster-%d", k)))
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if k < setupCount(e)-1 {
			if err := cl.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer cl.kill()

	// Bodies per worker, encoded before the clock starts.
	bodies := make([][]body, len(cl.workers))
	for i, w := range cl.workers {
		bodies[i] = encodeSlots(p, w.offices, slots)
	}
	var before, after []promSample
	for _, w := range cl.workers {
		m, err := scrape(ctx, c, w.base)
		if err != nil {
			return nil, err
		}
		before = append(before, m)
	}
	firstEpoch := uint64(p.trainWindows() + 1)
	var sendErr error
	tracer := newLiveTracer(rs.spans)
	st := drive(ctx, sh.slot, slots, tracer.wrap(func(s int) error {
		for i, w := range cl.workers {
			b := bodies[i][s]
			if err := postTicks(ctx, c, w.base, b.b, firstEpoch+uint64(s), b.ticks, b.inputs); err != nil {
				if sendErr == nil {
					sendErr = err
				}
				return err
			}
		}
		return nil
	}))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, w := range cl.workers {
		m, err := scrape(ctx, c, w.base)
		if err != nil {
			return nil, err
		}
		after = append(after, m)
	}
	rss, err := cl.procs.peakRSS()
	if err != nil {
		return nil, err
	}
	if err := cl.stop(); err != nil {
		return nil, err
	}

	r := newResult()
	for s := 0; s < st.n(); s++ {
		for i := range cl.workers {
			r.Attempted += int64(bodies[i][s].ticks)
			if st.failed[s] {
				r.Failed += int64(bodies[i][s].ticks)
			}
		}
	}
	if sendErr != nil {
		r.fail("ingest: %v", sendErr)
	}
	cpu, err := cl.procs.cpu()
	if err != nil {
		return nil, err
	}
	ref, err := runReference(ctx, rawSpec, p, st.n())
	if err != nil {
		return nil, err
	}
	live := liveRun{
		e: e, r: r, st: st, tap: cl.tap, setups: setupTimes,
		before: before, after: after, rss: rss, cpu: cpu, bytesKind: "forward",
		ref: ref, tracer: tracer,
	}
	if err := live.report(); err != nil {
		return nil, err
	}
	if dup, err := routerDuplicates(cl.router.errOutput()); err != nil {
		r.fail("%v", err)
	} else {
		r.set("cluster.duplicate_frames", float64(dup), "count")
	}
	if err := verify(r, cl.tap, ref); err != nil {
		return nil, err
	}
	if rs.spans != nil {
		if err := replay(ctx, e, rs, p, rawSpec, st, r, cl.split); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// clusterWorker is one fadewich-serve -mode worker and its shard.
type clusterWorker struct {
	proc    *proc
	base    string
	offices []int // indices into plan.names (== gids)
}

// clusterRun is one set-up of the cluster: its daemons, the tap on the
// router's forward and the office → worker split.
type clusterRun struct {
	procs   procs // coordinator, router, workers: the drain order is workers, router, coordinator
	coord   *proc
	router  *proc
	workers []*clusterWorker
	ln      net.Listener
	tap     *tap
	tapEnd  chan error
	split   split
}

// startCluster launches the topology, learns the shard assignment and
// trains every office through epoch-stamped POSTs: one set-up.
func startCluster(ctx context.Context, e *env, c *http.Client, p *plan, specPath, dir string) (*clusterRun, error) {
	if err := freshDir(dir); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cl := &clusterRun{ln: ln, tap: &tap{}, tapEnd: make(chan error, 1)}
	go func() { cl.tapEnd <- cl.tap.accept(ln) }()
	if err := cl.launch(ctx, e, c, p, specPath, dir); err != nil {
		cl.kill()
		return nil, err
	}
	return cl, nil
}

func (cl *clusterRun) launch(ctx context.Context, e *env, c *http.Client, p *plan, specPath, dir string) error {
	serveBin, tailBin := e.bins["fadewich-serve"], e.bins["fadewich-tail"]
	var err error
	cl.coord, err = startProc(ctx, "coordinator", "fadewich-serve: listening on ", serveBin,
		"-mode", "coordinator", "-spec", specPath, "-workers", "w1,w2", "-listen", "127.0.0.1:0")
	if err != nil {
		return err
	}
	cl.procs = append(cl.procs, cl.coord)
	coordAddr, err := cl.coord.addr()
	if err != nil {
		return err
	}
	coordBase := "http://" + coordAddr
	cl.router, err = startProc(ctx, "router", "fadewich-tail: routing on ", tailBin,
		"-route", "-listen", "127.0.0.1:0", "-expect", "2", "-forward", cl.ln.Addr().String(), "-format", "jsonl")
	if err != nil {
		return err
	}
	cl.procs = append(cl.procs, cl.router)
	routerAddr, err := cl.router.addr()
	if err != nil {
		return err
	}
	var as cluster.Assignments
	if status, err := doJSON(ctx, c, http.MethodGet, coordBase+"/v1/assignments", nil, &as); err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /v1/assignments = %d: %v", status, err)
	}
	cl.split = split{sources: 2, source: make([]uint8, len(p.names)), compress: true}
	byName := map[string]*clusterWorker{}
	for _, name := range []string{"w1", "w2"} {
		pr, err := startProc(ctx, name, "fadewich-serve: listening on ", serveBin,
			"-mode", "worker", "-coordinator", coordBase, "-name", name, "-forward", routerAddr,
			"-listen", "127.0.0.1:0", "-queue", strconv.Itoa(queueCap), "-codec", "1",
			"-compress", "-segments", filepath.Join(dir, "segments-"+name))
		if err != nil {
			return err
		}
		cl.procs = append(cl.procs, pr)
		w := &clusterWorker{proc: pr}
		cl.workers = append(cl.workers, w)
		byName[name] = w
	}
	sources := map[string]uint8{}
	for _, wa := range as.Workers {
		sources[wa.Name] = wa.Source
	}
	for i, oa := range as.Offices {
		w := byName[oa.Worker]
		if w == nil || oa.GID != i || oa.Name != p.names[i] {
			return fmt.Errorf("assignment %d = %+v; want office %s on w1 or w2 under gid %d", i, oa, p.names[i], i)
		}
		w.offices = append(w.offices, i)
		cl.split.source[i] = sources[oa.Worker]
	}
	for _, w := range cl.workers {
		addr, err := w.proc.addr()
		if err != nil {
			return err
		}
		w.base = "http://" + addr
	}
	// Training: one epoch per window, every worker every epoch (empty
	// bodies included: the router's watermark needs a frame per source).
	var buf []byte
	for k := 0; k < p.trainWindows(); k++ {
		win := p.trainingWindow(k)
		for _, w := range cl.workers {
			var ticks, inputs int
			buf, ticks, inputs = p.appendBody(buf[:0], win, w.offices)
			if err := postTicks(ctx, c, w.base, buf, uint64(k+1), ticks, inputs); err != nil {
				return fmt.Errorf("training epoch %d: %w", k+1, err)
			}
		}
	}
	for _, w := range cl.workers {
		if err := trainAll(ctx, c, w.base, len(w.offices)); err != nil {
			return err
		}
	}
	return nil
}

// stop drains the cluster: the workers send their final frames, the
// router completes on its own, and the tap sees its forward end.
func (cl *clusterRun) stop() error {
	for _, w := range cl.workers {
		if err := w.proc.drain(); err != nil {
			cl.kill()
			return err
		}
	}
	if err := cl.router.wait(); err != nil {
		cl.kill()
		return err
	}
	cl.ln.Close()
	if err := awaitTap(cl.tapEnd); err != nil {
		cl.kill()
		return err
	}
	return cl.coord.drain()
}

// routerDuplicates reads the duplicate-frame count from the router's
// end-of-run stderr line ("routed N actions in E epochs from W workers
// (D duplicate frames dropped)").
func routerDuplicates(stderr string) (int, error) {
	for _, line := range strings.Split(stderr, "\n") {
		if !strings.HasPrefix(line, "fadewich-tail: routed ") {
			continue
		}
		var actions, epochs, workers, dup int
		if _, err := fmt.Sscanf(line, "fadewich-tail: routed %d actions in %d epochs from %d workers (%d duplicate frames dropped)",
			&actions, &epochs, &workers, &dup); err != nil {
			return 0, fmt.Errorf("router end-of-run line %q: %w", line, err)
		}
		return dup, nil
	}
	return 0, fmt.Errorf("the router printed no end-of-run line")
}

// kill stops every daemon still running and the tap's listener.
func (cl *clusterRun) kill() {
	cl.procs.killAll()
	cl.ln.Close()
}
