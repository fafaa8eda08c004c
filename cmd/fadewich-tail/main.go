// Command fadewich-tail is the consumer end of the action path: it
// decodes the wire-framed deauthentication stream a fleet produces —
// live over TCP, durably from a segment directory, or merged from a
// cluster of workers — and renders it for humans (table) or machines
// (JSONL, the codec-v1 payload bytes).
//
// Three sources, one decoder:
//
//   - fadewich-tail -listen :9000
//     accepts connections from fadewich-serve -forward HOST:9000 (the
//     TCPSink dials out) and decodes frames as they arrive, across
//     reconnects. Listen mode always follows.
//
//     The accept loop is deliberately permissive: it accepts any
//     number of concurrent connections for the listener's whole
//     lifetime (a sink redial is just the next accepted connection),
//     frames from concurrent connections interleave in arrival order
//     at whole-frame granularity with no cross-connection ordering
//     guarantee, and a failed connection is reported to stderr without
//     stopping the listener or the other connections. For a fan-in
//     that *does* restore global order across producers, use -route.
//
//   - fadewich-tail -route -listen :9100 -expect N
//     is the cluster stream router (see docs/DEPLOYMENT.md): it
//     accepts the epoch-tagged frame streams of N fadewich-serve
//     workers (-mode worker -forward), k-way merges them back into
//     global (time, office) order epoch by epoch, renders the merged
//     stream, and exits once all N workers have sent their final
//     frame. The merged stream can additionally be re-emitted as a
//     plain TCP wire stream (-forward, feeding a downstream
//     fadewich-tail -listen) and/or persisted to a segment log
//     (-segments DIR).
//
//   - fadewich-tail DIR
//     replays the segment directory a fadewich-serve -segments DIR run
//     left behind, across segment files, stopping cleanly before a
//     torn final frame (the tail a crash leaves). -follow keeps
//     polling for frames a live writer appends; -repair truncates a
//     torn final frame in place first (never combine with a live
//     writer).
//
// Filters and rendering apply to every source: -office N keeps one
// office's actions (repeatable as a comma list), -from-tick/-to-tick
// bound the office-clock time in seconds, -format picks jsonl
// (byte-exact codec-v1 lines, the reference form for diffing two
// streams) or table. In -route mode the filters shape only the rendered
// output — the -forward and -segments streams always carry the full
// merge.
//
// Usage:
//
//	fadewich-tail [-follow] [-repair] [-office LIST] [-from-tick T]
//	              [-to-tick T] [-format jsonl|table] DIR
//	fadewich-tail -listen ADDR [-office LIST] [-from-tick T]
//	              [-to-tick T] [-format jsonl|table]
//	fadewich-tail -route -listen ADDR -expect N [-forward ADDR]
//	              [-segments DIR] [-compress] [-format jsonl|table]
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"fadewich/internal/cluster"
	"fadewich/internal/engine"
	"fadewich/internal/segment"
	"fadewich/internal/stream"
	"fadewich/internal/wire"
)

func main() {
	listen := flag.String("listen", "", "accept TCPSink connections on this address and decode the live stream")
	route := flag.Bool("route", false, "cluster stream router: merge -expect epoch-tagged worker streams back into global order (needs -listen)")
	expect := flag.Int("expect", 0, "route mode: number of worker sources that must deliver a final frame before exiting")
	forward := flag.String("forward", "", "route mode: re-emit the merged stream to this TCP address as plain wire frames")
	segDir := flag.String("segments", "", "route mode: persist the merged stream to a rotating segment log in this directory")
	compress := flag.Bool("compress", false, "route mode: deflate frame bodies on -forward and -segments output (decoded output is byte-identical)")
	follow := flag.Bool("follow", false, "segment dir: keep polling for new frames instead of stopping at the end")
	repair := flag.Bool("repair", false, "segment dir: truncate a torn final frame in place before replaying")
	officeList := flag.String("office", "", "only these office IDs (comma-separated; empty = all)")
	fromTick := flag.Float64("from-tick", 0, "only actions at office-clock time >= this many seconds (0 = from the start)")
	toTick := flag.Float64("to-tick", 0, "only actions at office-clock time <= this many seconds (0 = unbounded)")
	format := flag.String("format", "table", "output format: jsonl (byte-exact codec-v1 lines) or table")
	flag.Parse()

	opt := tailOptions{
		listen:   *listen,
		route:    *route,
		expect:   *expect,
		forward:  *forward,
		segDir:   *segDir,
		compress: *compress,
		follow:   *follow,
		repair:   *repair,
		offices:  *officeList,
		from:     *fromTick,
		to:       *toTick,
		format:   *format,
	}
	if err := run(opt, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "fadewich-tail: %v\n", err)
		os.Exit(1)
	}
}

type tailOptions struct {
	listen   string
	route    bool
	expect   int
	forward  string
	segDir   string
	compress bool
	follow   bool
	repair   bool
	offices  string
	from     float64
	to       float64
	format   string
}

func run(opt tailOptions, args []string) error {
	render, err := newRenderer(os.Stdout, opt.format)
	if err != nil {
		return err
	}
	offices, err := parseOffices(opt.offices)
	if err != nil {
		return err
	}
	f := filter{offices: offices, from: opt.from, to: opt.to}
	if !opt.route && (opt.expect != 0 || opt.forward != "" || opt.segDir != "" || opt.compress) {
		return errors.New("-expect, -forward, -segments and -compress need -route")
	}
	switch {
	case opt.listen != "" && len(args) > 0:
		return errors.New("-listen and a segment directory are mutually exclusive")
	case opt.route:
		if opt.listen == "" {
			return errors.New("-route needs -listen")
		}
		if opt.repair || opt.follow {
			return errors.New("-repair and -follow only apply to a segment directory")
		}
		if opt.expect < 1 {
			return errors.New("-route needs -expect (the number of worker streams)")
		}
		return routeStream(opt, f, render)
	case opt.listen != "":
		if opt.repair {
			return errors.New("-repair only applies to a segment directory")
		}
		return tailTCP(opt.listen, f, render)
	case len(args) == 1:
		if opt.repair && opt.follow {
			return errors.New("-repair with -follow would truncate a frame a live writer may still be appending")
		}
		return tailDir(args[0], opt.follow, segment.Options{
			FromTime: opt.from,
			ToTime:   opt.to,
			Offices:  offices,
			Repair:   opt.repair,
		}, render)
	default:
		return errors.New("need exactly one segment directory, or -listen ADDR")
	}
}

// parseOffices parses the -office comma list.
func parseOffices(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad office ID %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// filter is the action filter applied in listen and route mode (the
// segment reader filters dir-mode replays itself).
type filter struct {
	offices []int
	from    float64
	to      float64
}

func (f filter) keep(a engine.OfficeAction) bool {
	if len(f.offices) > 0 {
		ok := false
		for _, o := range f.offices {
			if a.Office == o {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if f.from > 0 && a.Action.Time < f.from {
		return false
	}
	if f.to > 0 && a.Action.Time > f.to {
		return false
	}
	return true
}

func (f filter) apply(acts []engine.OfficeAction) []engine.OfficeAction {
	kept := acts[:0]
	for _, a := range acts {
		if f.keep(a) {
			kept = append(kept, a)
		}
	}
	return kept
}

// renderer writes decoded batches to the output writer.
type renderer struct {
	out     *bufio.Writer
	jsonl   bool
	buf     []byte
	header  bool
	actions uint64
	frames  uint64
}

func newRenderer(w io.Writer, format string) (*renderer, error) {
	switch format {
	case "jsonl", "table":
		return &renderer{out: bufio.NewWriter(w), jsonl: format == "jsonl"}, nil
	default:
		return nil, fmt.Errorf("unknown format %q (want jsonl or table)", format)
	}
}

func (r *renderer) emit(acts []engine.OfficeAction) error {
	if len(acts) == 0 {
		return nil
	}
	r.frames++
	r.actions += uint64(len(acts))
	if r.jsonl {
		r.buf = wire.AppendJSONL(r.buf[:0], acts)
		if _, err := r.out.Write(r.buf); err != nil {
			return err
		}
		return r.out.Flush()
	}
	if !r.header {
		r.header = true
		fmt.Fprintf(r.out, "%10s  %6s  %-15s  %4s  %-12s  %s\n",
			"TIME", "OFFICE", "TYPE", "WS", "CAUSE", "LABEL")
	}
	for _, a := range acts {
		cause := ""
		if a.Action.Cause != 0 {
			cause = a.Action.Cause.String()
		}
		fmt.Fprintf(r.out, "%10.1f  %6d  %-15s  %4d  %-12s  %d\n",
			a.Action.Time, a.Office, a.Action.Type, a.Action.Workstation, cause, a.Action.Label)
	}
	return r.out.Flush()
}

// tailDir replays (and with follow, keeps tailing) a segment directory.
func tailDir(dir string, follow bool, opt segment.Options, render *renderer) error {
	r, err := segment.OpenDir(dir, opt)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		acts, err := r.Next()
		if err == io.EOF {
			if follow {
				time.Sleep(150 * time.Millisecond)
				continue
			}
			if info, torn := r.Torn(); torn {
				verb := "stopped before"
				if info.Repaired {
					verb = "truncated"
				}
				fmt.Fprintf(os.Stderr, "fadewich-tail: %s a torn final frame: %s (+%d bytes past offset %d)\n",
					verb, info.Path, info.TornBytes, info.Offset)
			}
			fmt.Fprintf(os.Stderr, "fadewich-tail: replayed %d actions in %d frames\n", render.actions, render.frames)
			return nil
		}
		if err != nil {
			return err
		}
		if err := render.emit(acts); err != nil {
			return err
		}
	}
}

// tailTCP accepts TCPSink connections on addr and serves them with
// serveListener until interrupted.
func tailTCP(addr string, f filter, render *renderer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Fprintf(os.Stderr, "fadewich-tail: listening on %s\n", ln.Addr())
	return serveListener(ln, f, render)
}

// serveListener is listen mode's accept loop, with the semantics the
// package doc pins down (and TestServeListener enforces): any number of
// concurrent connections for the listener's whole lifetime, frames
// interleaved in arrival order at whole-frame granularity with no
// cross-connection ordering guarantee, per-connection decode failures
// reported without stopping the listener. It returns when the listener
// closes.
func serveListener(ln net.Listener, f filter, render *renderer) error {
	frames := make(chan []engine.OfficeAction, 64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				close(frames)
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				d := wire.NewDecoder(c)
				for {
					acts, err := d.Decode()
					if err != nil {
						if err != io.EOF && !errors.Is(err, wire.ErrTorn) {
							fmt.Fprintf(os.Stderr, "fadewich-tail: %s: %v\n", c.RemoteAddr(), err)
						}
						return
					}
					frames <- acts
				}
			}(conn)
		}
	}()
	for acts := range frames {
		if err := render.emit(f.apply(acts)); err != nil {
			return err
		}
	}
	return nil
}

// routeStream runs the cluster stream router: accept the workers'
// epoch-tagged streams, merge them back into global order, and fan the
// merged stream out to stdout (filtered, rendered), an optional plain
// TCP forward and an optional segment log.
func routeStream(opt tailOptions, f filter, render *renderer) error {
	ln, err := net.Listen("tcp", opt.listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fadewich-tail: routing on %s\n", ln.Addr())
	return routeOnListener(ln, opt, f, render)
}

// routeOnListener is route mode minus the listen call; it owns ln.
func routeOnListener(ln net.Listener, opt tailOptions, f filter, render *renderer) error {
	var sinks []stream.Sink
	if opt.segDir != "" {
		seg, err := stream.NewSegmentSink(segment.Config{
			Dir:      opt.segDir,
			Compress: opt.compress,
		})
		if err != nil {
			return err
		}
		sinks = append(sinks, seg)
	}
	if opt.forward != "" {
		fwd, err := stream.NewTCPSink(opt.forward)
		if err != nil {
			stream.NewEncodeOnceSink(sinks...).Close()
			return err
		}
		fwd.Compress = opt.compress
		sinks = append(sinks, fwd)
	}
	// One fan-out: -forward and -segments share one encode of each
	// merged batch.
	out := stream.NewEncodeOnceSink(sinks...)

	var epochs uint64
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Expect: opt.expect,
		OnBatch: func(epoch uint64, batch []engine.OfficeAction) error {
			epochs++
			if err := out.WriteEncoded(stream.NewEncodedBatch(batch)); err != nil {
				return err
			}
			// Render last: the filter compacts the batch in place, so the
			// sinks must have encoded it first.
			return render.emit(f.apply(batch))
		},
	})
	if err != nil {
		out.Close()
		return err
	}
	err = router.Serve(ln)
	if cerr := out.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	st := router.Stats()
	fmt.Fprintf(os.Stderr, "fadewich-tail: routed %d actions in %d epochs from %d workers (%d duplicate frames dropped)\n",
		st.Actions, epochs, st.SourcesFinal, st.Duplicates)
	return nil
}
