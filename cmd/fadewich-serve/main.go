// Command fadewich-serve is the reconciling control-plane daemon: it
// hosts a live fleet behind an HTTP API and drives fleet membership
// declaratively from a JSON fleet-spec file.
//
// The spec file (-spec) lists the desired offices — each a required
// stable "name" plus its floor plan, sensor count and MD thresholds
// (see internal/serve.OfficeSpec). A reconcile loop diffs that
// desired state against live membership and applies adds, removes and
// config rollouts at batch boundaries. Startup is the first reconcile;
// the spec is re-read on SIGHUP, on POST /v1/reload, and (with -watch)
// on every tick of the poll interval, where unchanged content is a
// no-op.
//
// The HTTP surface:
//
//	POST /v1/ticks    ingest tick JSONL ({"office":NAME,"rssi":[...]}
//	                  or {"office":NAME,"input":WS}), at most 64 MiB
//	                  per body; ?flush=1 dispatches the queued ticks
//	                  immediately, ?flush=1&epoch=K stamps the dispatch with a
//	                  cluster epoch (worker mode, where a flush must
//	                  carry one)
//	GET  /v1/actions  chunked wire-frame stream of every dispatched
//	                  action batch (?compress=1 deflates large frames)
//	GET  /v1/offices  per-office status: phase, training samples,
//	                  observed spec generation, queue counters
//	POST /v1/train    move every training-phase office online
//	POST /v1/reload   re-read the spec source and reconcile
//	GET  /metrics     Prometheus text exposition, dependency-free
//
// Actions leave on ?flush=1, when a queue fills under -on-full block
// (in worker mode those hold for the next epoch flush), and at drain.
// A ?flush=1 body larger than the decode window runs through the fleet
// while it is decoded, its actions held for the flush. Under
// drop-oldest or error, a producer that never flushes loses ticks to
// the drop counter.
//
// Actions can additionally be persisted to a rotating segment log
// (-segments, replayable with fadewich-tail; -retention deletes sealed
// segments past a TTL) and forwarded over TCP (-forward, the feed for
// fadewich-tail -listen). On SIGINT/SIGTERM
// the daemon drains: queued ticks are dispatched, sinks flushed, the
// active segment sealed.
//
// Beyond the default single-process mode, -mode selects the two
// cluster roles (see docs/DEPLOYMENT.md for the full topology):
//
//   - -mode coordinator shards the -spec offices onto the named
//     -workers with a consistent-hash ring and serves each worker its
//     gid-stamped sub-spec (GET /v1/shard/{worker}); the worker set
//     changes with PUT /v1/workers, the spec with POST /v1/reload.
//   - -mode worker fetches its sub-spec from -coordinator, runs an
//     ordinary fleet over it, and forwards epoch-tagged wire frames to
//     the stream router at -forward. Worker flushes must carry an
//     epoch (?flush=1&epoch=K).
//
// Usage:
//
//	fadewich-serve -spec fleet.json [-listen ADDR] [-watch 2s]
//	               [-segments DIR] [-retention TTL] [-forward ADDR]
//	               [-queue N] [-on-full block|drop-oldest|error]
//	               [-parallel N]
//	fadewich-serve -mode coordinator -spec fleet.json -workers w1,w2
//	               [-replicas N] [-listen ADDR] [-watch 2s]
//	fadewich-serve -mode worker -coordinator URL -name w1
//	               -forward ROUTER [-listen ADDR] [...]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fadewich/internal/cluster"
	"fadewich/internal/prof"
	"fadewich/internal/segment"
	"fadewich/internal/serve"
	"fadewich/internal/stream"
	"fadewich/internal/wire"
)

func main() {
	mode := flag.String("mode", "serve", "role: serve (single-process fleet), coordinator (shard a spec onto workers) or worker (run a coordinator-assigned shard)")
	listen := flag.String("listen", "127.0.0.1:8080", "HTTP listen address (use :0 for an ephemeral port; the bound address is printed to stderr)")
	specPath := flag.String("spec", "", "JSON fleet-spec file with the desired offices (serve and coordinator modes)")
	watch := flag.Duration("watch", 0, "re-read the spec source at this interval and reconcile when it changed (0 = only SIGHUP and /v1/reload)")
	queue := flag.Int("queue", 0, "per-office tick queue capacity (0 = default 256)")
	onFull := flag.String("on-full", "block", "backpressure policy when a queue is full: block, drop-oldest or error")
	parallel := flag.Int("parallel", 0, "fleet worker pool width (0 = one per CPU)")
	segDir := flag.String("segments", "", "persist the action stream to a rotating segment log in this directory")
	segMaxBytes := flag.Int64("segment-max-bytes", 0, "rotate segments at this size (0 = library default)")
	segMaxAge := flag.Duration("segment-max-age", 0, "rotate segments at this age (0 = size-only)")
	fsync := flag.String("fsync", "rotate", "segment log durability: never, rotate or always")
	codec := flag.Int("codec", 1, "wire codec of the segment log and the TCP forward: 1 = JSONL, the only codec")
	compress := flag.Bool("compress", false, "deflate frame bodies on the segment log and the TCP forward (decoded output is byte-identical)")
	retention := flag.Duration("retention", 0, "delete sealed segments older than this TTL, checked every min(TTL/2, 1m) (0 = keep forever; needs -segments)")
	forward := flag.String("forward", "", "also stream dispatched batches to this TCP address as wire frames (worker mode: the stream router, required)")
	coordinator := flag.String("coordinator", "", "coordinator base URL, e.g. http://127.0.0.1:9300 (worker mode)")
	name := flag.String("name", "", "this worker's name in the coordinator's worker set (worker mode)")
	workers := flag.String("workers", "", "comma-separated initial worker names (coordinator mode)")
	replicas := flag.Int("replicas", 0, "consistent-hash ring points per worker (coordinator mode; 0 = 128)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex contention profile to this file at exit")
	flag.Parse()

	stopProf, err := prof.Start(prof.Flags{CPU: *cpuProfile, Mem: *memProfile, Mutex: *mutexProfile})
	if err == nil {
		err = run(options{
			mode:        *mode,
			listen:      *listen,
			specPath:    *specPath,
			watch:       *watch,
			queue:       *queue,
			onFull:      *onFull,
			parallel:    *parallel,
			segDir:      *segDir,
			segMaxBytes: *segMaxBytes,
			segMaxAge:   *segMaxAge,
			fsync:       *fsync,
			codec:       *codec,
			compress:    *compress,
			retention:   *retention,
			forward:     *forward,
			coordinator: *coordinator,
			name:        *name,
			workers:     *workers,
			replicas:    *replicas,
		})
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fadewich-serve: %v\n", err)
		os.Exit(1)
	}
}

type options struct {
	mode        string
	listen      string
	specPath    string
	watch       time.Duration
	queue       int
	onFull      string
	parallel    int
	segDir      string
	segMaxBytes int64
	segMaxAge   time.Duration
	fsync       string
	codec       int
	compress    bool
	retention   time.Duration
	forward     string
	coordinator string
	name        string
	workers     string
	replicas    int
}

func run(opt options) error {
	switch opt.mode {
	case "serve":
		return runServe(opt)
	case "coordinator":
		return runCoordinator(opt)
	case "worker":
		return runWorker(opt)
	default:
		return fmt.Errorf("unknown -mode %q (want serve, coordinator or worker)", opt.mode)
	}
}

// baseConfig translates the flags every fleet-hosting mode shares.
func baseConfig(opt options) (serve.Config, error) {
	if opt.codec != int(wire.V1JSONL) {
		return serve.Config{}, fmt.Errorf("unknown wire codec %d (want 1)", opt.codec)
	}
	policy, err := stream.ParsePolicy(opt.onFull)
	if err != nil {
		return serve.Config{}, err
	}
	fsyncPolicy, err := segment.ParseFsyncPolicy(opt.fsync)
	if err != nil {
		return serve.Config{}, err
	}
	return serve.Config{
		Queue:           opt.queue,
		OnFull:          policy,
		Workers:         opt.parallel,
		SegmentDir:      opt.segDir,
		SegmentMaxBytes: opt.segMaxBytes,
		SegmentMaxAge:   opt.segMaxAge,
		Fsync:           fsyncPolicy,
		Compress:        opt.compress,
		Retention:       opt.retention,
		Forward:         opt.forward,
	}, nil
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so a client that never finishes them cannot hold
// the connection forever. Bodies are bounded in size (handleTicks caps
// them at wire.MaxPayloadBytes, 64 MiB) but not in time: a training
// POST carries a whole training day of ticks.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer is the HTTP server of every mode.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// runServe is the classic single-process mode.
func runServe(opt options) error {
	if opt.specPath == "" {
		return errors.New("-spec is required")
	}
	if opt.coordinator != "" || opt.name != "" || opt.workers != "" {
		return errors.New("-coordinator, -name and -workers need -mode worker or coordinator")
	}
	cfg, err := baseConfig(opt)
	if err != nil {
		return err
	}
	cfg.SpecSource = func() ([]byte, error) { return os.ReadFile(opt.specPath) }
	return serveFleet(opt, cfg)
}

// runWorker runs a coordinator-assigned shard: the spec comes from the
// coordinator's shard endpoint, and every dispatched batch leaves as an
// epoch-tagged wire frame carrying this worker's source ID.
func runWorker(opt options) error {
	if opt.coordinator == "" || opt.name == "" {
		return errors.New("worker mode needs -coordinator and -name")
	}
	if opt.specPath != "" {
		return errors.New("worker mode takes its spec from the coordinator, not -spec")
	}
	if opt.forward == "" {
		return errors.New("worker mode needs -forward (the stream router's listen address)")
	}
	first, err := cluster.FetchShard(nil, opt.coordinator, opt.name)
	if err != nil {
		return err
	}
	source := first.Source
	cfg, err := baseConfig(opt)
	if err != nil {
		return err
	}
	cfg.ForwardSource = source
	cfg.SpecSource = func() ([]byte, error) {
		ss, err := cluster.FetchShard(nil, opt.coordinator, opt.name)
		if err != nil {
			return nil, err
		}
		if ss.Source != source {
			return nil, fmt.Errorf("coordinator now reports source %d for %s (was %d) — was the coordinator restarted? restart this worker too", ss.Source, opt.name, source)
		}
		return ss.Spec, nil
	}
	return serveFleet(opt, cfg)
}

// serveFleet hosts a serve.Server (single-process or worker shard)
// until SIGINT/SIGTERM, draining on the way out.
func serveFleet(opt options, cfg serve.Config) error {
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	err = serveHTTP(opt.listen, opt.watch, srv, srv.Reload, srv.Close)
	printRunStats(srv)
	return err
}

// serveHTTP serves h on addr until SIGINT/SIGTERM, calling reload on
// every SIGHUP and, when watch is positive, at that interval: the spec
// file, a worker's sub-spec and the coordinator's spec alike, where
// unchanged content is a no-op that keeps the generation. On
// SIGINT/SIGTERM drain runs before the listener stops:
// a fleet's Close dispatches queued ticks, flushes and closes the sinks
// (sealing the active segment, and in worker mode sending the final
// tagged frame) and completes the /v1/actions streams, which lets
// Shutdown's wait for active connections finish.
func serveHTTP(addr string, watch time.Duration, h http.Handler, reload, drain func() error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		drain()
		return err
	}
	// The bound address line is machine-read by the e2e harness (and by
	// humans with -listen :0), so its shape is load-bearing.
	fmt.Fprintf(os.Stderr, "fadewich-serve: listening on %s\n", ln.Addr())

	httpSrv := newHTTPServer(h)

	if watch > 0 {
		go func() {
			for range time.Tick(watch) {
				if err := reload(); err != nil {
					fmt.Fprintf(os.Stderr, "fadewich-serve: watch reload: %v\n", err)
				}
			}
		}()
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := reload(); err != nil {
				fmt.Fprintf(os.Stderr, "fadewich-serve: reload: %v\n", err)
			} else {
				fmt.Fprintln(os.Stderr, "fadewich-serve: spec reloaded")
			}
		}
	}()

	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		sig := <-term
		fmt.Fprintf(os.Stderr, "fadewich-serve: %v: draining\n", sig)
		err := drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if serr := httpSrv.Shutdown(ctx); serr != nil && err == nil {
			err = serr
		}
		done <- err
	}()

	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		drain()
		return err
	}
	return <-done
}

// printRunStats reports the end-of-run byte movement on stderr. The
// "N logical bytes, M wire bytes" shape is machine-read by the e2e
// harness to assert compression ratios, so it is load-bearing.
func printRunStats(srv *serve.Server) {
	if fwd := srv.Forwarder(); fwd != nil {
		st := fwd.Stats()
		fmt.Fprintf(os.Stderr, "fadewich-serve: forward: %d frames, %d logical bytes, %d wire bytes\n", st.Frames, st.Bytes, st.WireBytes)
	}
	if seg := srv.Segment(); seg != nil {
		st := seg.Stats()
		fmt.Fprintf(os.Stderr, "fadewich-serve: segments: %d frames, %d logical bytes, %d wire bytes\n", st.Frames, st.Bytes, st.WireBytes)
	}
}

// runCoordinator hosts the shard coordinator: no fleet of its own, just
// the assignment state and its HTTP surface.
func runCoordinator(opt options) error {
	if opt.specPath == "" {
		return errors.New("-spec is required")
	}
	if opt.workers == "" {
		return errors.New("coordinator mode needs -workers (comma-separated names)")
	}
	var names []string
	for _, w := range strings.Split(opt.workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			names = append(names, w)
		}
	}
	c, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		SpecPath: opt.specPath,
		Workers:  names,
		Replicas: opt.replicas,
	})
	if err != nil {
		return err
	}
	// The coordinator holds no fleet, so it has nothing to drain.
	return serveHTTP(opt.listen, opt.watch, c, c.Reload, func() error { return nil })
}
