package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fadewich/internal/core"
	"fadewich/internal/engine"
	"fadewich/internal/segment"
	"fadewich/internal/stream"
	"fadewich/internal/wire"
)

// ContentTypeFrames is the POST /v1/ticks content type selecting the
// wire-framed transport: the body is a sequence of CRC-checked raw
// frames (wire.AppendRawFrame, codec byte V1JSONL) whose payloads are
// tick JSONL. Any other content type is read as bare tick JSONL.
const ContentTypeFrames = "application/x-fadewich-frames"

// DefaultSubscriberBuffer is the per-/v1/actions-connection frame
// buffer when Config.SubscriberBuffer is zero.
const DefaultSubscriberBuffer = 256

// DefaultMaintainEvery is the segment-maintenance pass interval when
// Config.MaintainEvery is zero.
const DefaultMaintainEvery = time.Minute

// Config parameterises a Server.
type Config struct {
	// SpecPath is the fleet-spec file (required unless SpecSource is
	// set): the declarative desired membership, reloaded by Reload.
	SpecPath string
	// SpecSource, when set, replaces the spec file as the source of raw
	// spec content for both startup and Reload. Worker mode uses it to
	// fetch the coordinator-assigned sub-spec over HTTP.
	SpecSource func() ([]byte, error)
	// Queue, OnFull, BatchTicks, AdaptiveBatch and MaxBatchLatency pass
	// through to the ingestor (stream.Config). With both BatchTicks and
	// MaxBatchLatency zero, dispatch is strictly ?flush=1-driven —
	// deterministic, and what the e2e byte-identity harness relies on.
	Queue           int
	OnFull          stream.Policy
	BatchTicks      int
	AdaptiveBatch   bool
	MaxBatchLatency time.Duration
	// Workers sizes the fleet's worker pool (0 selects GOMAXPROCS).
	Workers int
	// SegmentDir, when set, persists the action stream to a rotating
	// segment log there, under SegmentMaxBytes/SegmentMaxAge/Fsync and
	// the Codec version. A drained shutdown seals the active segment.
	SegmentDir      string
	SegmentMaxBytes int64
	SegmentMaxAge   time.Duration
	Fsync           segment.FsyncPolicy
	Codec           wire.Version
	// Compress deflates frame bodies (wire.FlagCompressed) on the
	// segment log and the forward stream when they clear the
	// compression threshold; decoded output is byte-identical either
	// way. /v1/actions subscribers opt in per connection (?compress=1)
	// regardless of this knob.
	Compress bool
	// CompactAfter, when positive, rewrites sealed segments older than
	// this into compressed frames on each maintenance pass. Retention,
	// when positive, deletes sealed segments older than it
	// (manifest-first; the active segment is never touched). Replicate,
	// when set, ships sealed segments to this directory before
	// retention prunes them. All three need SegmentDir.
	CompactAfter time.Duration
	Retention    time.Duration
	Replicate    string
	// MaintainEvery is the maintenance pass interval (0 selects
	// DefaultMaintainEvery; only runs when a maintenance job is
	// configured).
	MaintainEvery time.Duration
	// Forward, when set, streams every dispatched batch to this TCP
	// address as wire frames (codec Codec), the fan-in feed for a
	// downstream fadewich-tail or router tier.
	Forward string
	// ForwardSource, when non-zero, switches the forward stream to the
	// cluster wire protocol: frames are tagged with this worker source
	// ID and the producer-driven epoch (?flush=1&epoch=K), actions are
	// remapped from local fleet IDs to the gids the spec carries, and
	// shutdown sends a final frame. Requires Forward, a spec whose
	// offices all carry gids, and strictly flush-driven dispatch
	// (BatchTicks, AdaptiveBatch and MaxBatchLatency all zero) — the
	// tagged sink refuses untagged batches.
	ForwardSource uint8
	// SubscriberBuffer is each /v1/actions connection's in-flight frame
	// budget; a consumer further behind is dropped (0 selects
	// DefaultSubscriberBuffer).
	SubscriberBuffer int
	// AllowEmpty accepts a spec with zero offices, at startup and on
	// reload. Worker mode sets it: a coordinator-assigned shard may
	// legitimately be empty (the hash owes this worker nothing right
	// now), and the worker must still run to emit its per-epoch
	// watermark frames. Without it an empty spec is rejected — a
	// single-process operator emptying the fleet is almost always a
	// spec-file accident.
	AllowEmpty bool
}

// Server hosts a live Fleet+Ingestor behind the HTTP API. Create with
// New, serve it (it implements http.Handler), Close it to drain.
type Server struct {
	cfg     Config
	fleet   *engine.Fleet
	ing     *stream.Ingestor
	rec     *Reconciler
	bcast   *broadcaster
	seg     *stream.SegmentSink // nil without SegmentDir
	fwd     *stream.TCPSink     // nil without Forward
	source  func() ([]byte, error)
	mux     *http.ServeMux
	started time.Time

	// Segment maintenance (compaction, retention, replication): the
	// loop goroutine runs Maintain on a ticker; the counters accumulate
	// its results for /metrics.
	maintOpt  segment.MaintainOptions
	maintStop chan struct{}
	maintDone chan struct{}
	maint     maintCounters

	closing   atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

// maintCounters aggregates maintenance results across passes.
type maintCounters struct {
	passes, errors                         atomic.Uint64
	compactedSegments, compactedBytesSaved atomic.Uint64
	retainedSegments, retainedBytes        atomic.Uint64
	replicatedSegments, replicatedBytes    atomic.Uint64
}

// add folds one pass's result in.
func (c *maintCounters) add(res segment.MaintainResult) {
	c.passes.Add(1)
	c.compactedSegments.Add(uint64(res.Compacted.Segments))
	if saved := res.Compacted.BytesBefore - res.Compacted.BytesAfter; saved > 0 {
		c.compactedBytesSaved.Add(uint64(saved))
	}
	c.retainedSegments.Add(uint64(res.Retained.Segments))
	c.retainedBytes.Add(uint64(res.Retained.Bytes))
	c.replicatedSegments.Add(uint64(res.Replicated.Segments))
	c.replicatedBytes.Add(uint64(res.Replicated.Bytes))
}

// New builds the fleet from the spec file and starts the ingestion
// machinery. Offices are created in spec order under IDs 0..n−1.
func New(cfg Config) (*Server, error) {
	if cfg.SpecPath == "" && cfg.SpecSource == nil {
		return nil, errors.New("serve: no fleet-spec path or source")
	}
	if cfg.ForwardSource != 0 {
		if cfg.Forward == "" {
			return nil, errors.New("serve: forward source set without a forward address")
		}
		if cfg.BatchTicks != 0 || cfg.AdaptiveBatch || cfg.MaxBatchLatency != 0 {
			return nil, errors.New("serve: tagged forwarding needs strictly flush-driven dispatch (no batch-ticks, adaptive-batch or max-latency)")
		}
	}
	source := cfg.SpecSource
	if source == nil {
		path := cfg.SpecPath
		source = func() ([]byte, error) { return os.ReadFile(path) }
	}
	raw, err := source()
	if err != nil {
		return nil, fmt.Errorf("serve: fleet spec: %w", err)
	}
	spec, err := ParseSpec(raw)
	if err != nil {
		return nil, err
	}
	resolved, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	if len(resolved) == 0 && !cfg.AllowEmpty {
		return nil, errors.New("serve: fleet spec: no offices (the fleet needs at least one)")
	}
	if cfg.ForwardSource != 0 {
		for _, ro := range resolved {
			if ro.GID < 0 {
				return nil, fmt.Errorf("serve: tagged forwarding needs a gid for every office, but %q has none", ro.Name)
			}
		}
	}
	perOffice := make(map[int]core.Config, len(resolved))
	var def core.Config
	for i, ro := range resolved {
		perOffice[i] = ro.Config
		if i == 0 {
			def = ro.Config
		}
	}
	fleet, err := engine.NewFleet(engine.FleetConfig{
		Offices:   len(resolved),
		System:    def,
		PerOffice: perOffice,
		Workers:   cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}

	if cfg.SegmentDir == "" && (cfg.CompactAfter > 0 || cfg.Retention > 0 || cfg.Replicate != "") {
		return nil, errors.New("serve: segment maintenance (compaction, retention, replication) needs a segment directory")
	}

	s := &Server{cfg: cfg, fleet: fleet, bcast: newBroadcaster(), source: source, started: time.Now()}
	sinks := []stream.Sink{s.bcast}
	if cfg.SegmentDir != "" {
		seg, err := stream.NewSegmentSink(segment.Config{
			Dir:             cfg.SegmentDir,
			MaxSegmentBytes: cfg.SegmentMaxBytes,
			MaxSegmentAge:   cfg.SegmentMaxAge,
			Fsync:           cfg.Fsync,
			Version:         cfg.Codec,
			Compress:        cfg.Compress,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		s.seg = seg
		sinks = append(sinks, seg)
	}
	if cfg.Forward != "" {
		fwd, err := stream.NewTCPSink(cfg.Forward)
		if err != nil {
			if s.seg != nil {
				s.seg.Close()
			}
			return nil, fmt.Errorf("serve: %w", err)
		}
		if cfg.Codec != 0 {
			fwd.Version = cfg.Codec
		}
		fwd.Compress = cfg.Compress
		s.fwd = fwd
		if cfg.ForwardSource != 0 {
			fwd.Source = cfg.ForwardSource
			// Remap local fleet IDs to cluster-wide gids on the way out.
			// The closure reads s.rec, assigned below before any tick can
			// be pushed (and therefore before any batch can be pumped).
			sinks = append(sinks, stream.NewRemapSink(fwd, func(local int) (int, bool) {
				return s.rec.GlobalID(local)
			}))
		} else {
			sinks = append(sinks, fwd)
		}
	}
	// Encode-once fan-out: any (codec, compressed) frame variant a
	// member wants — the segment log, a broadcaster subscriber — is
	// encoded exactly once per dispatch and shared read-only.
	sink := sinks[0]
	if len(sinks) > 1 {
		sink = stream.NewEncodeOnceSink(sinks...)
	}

	s.ing, err = stream.NewIngestor(fleet, stream.Config{
		Queue:           cfg.Queue,
		OnFull:          cfg.OnFull,
		BatchTicks:      cfg.BatchTicks,
		AdaptiveBatch:   cfg.AdaptiveBatch,
		MaxBatchLatency: cfg.MaxBatchLatency,
		Sink:            sink,
	})
	if err != nil {
		sink.Close()
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.rec = newReconciler(s.ing, resolved, fleet.IDs(), raw, cfg.AllowEmpty)

	if cfg.CompactAfter > 0 || cfg.Retention > 0 || cfg.Replicate != "" {
		s.maintOpt = segment.MaintainOptions{
			CompactAfter: cfg.CompactAfter,
			Retention:    cfg.Retention,
		}
		if cfg.Replicate != "" {
			rep, err := segment.NewReplicator(cfg.Replicate)
			if err != nil {
				s.ing.Close()
				return nil, fmt.Errorf("serve: %w", err)
			}
			s.maintOpt.Replica = rep
		}
		every := cfg.MaintainEvery
		if every <= 0 {
			every = DefaultMaintainEvery
		}
		s.maintStop, s.maintDone = make(chan struct{}), make(chan struct{})
		go s.maintainLoop(every)
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/ticks", s.handleTicks)
	s.mux.HandleFunc("GET /v1/actions", s.handleActions)
	s.mux.HandleFunc("GET /v1/offices", s.handleOffices)
	s.mux.HandleFunc("POST /v1/train", s.handleTrain)
	s.mux.HandleFunc("POST /v1/reload", s.handleReload)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Ingestor exposes the underlying ingestion layer (stats, direct
// pushes in tests).
func (s *Server) Ingestor() *stream.Ingestor { return s.ing }

// Fleet exposes the hosted fleet (read-side inspection only; all
// membership changes must flow through the reconciler).
func (s *Server) Fleet() *engine.Fleet { return s.fleet }

// Reconciler exposes the reconcile loop's state.
func (s *Server) Reconciler() *Reconciler { return s.rec }

// Segment exposes the segment sink, nil without Config.SegmentDir.
func (s *Server) Segment() *stream.SegmentSink { return s.seg }

// Forwarder exposes the TCP forward sink, nil without Config.Forward.
func (s *Server) Forwarder() *stream.TCPSink { return s.fwd }

// Reload re-reads the spec source (the spec file, or Config.SpecSource
// — in worker mode the coordinator's sub-spec endpoint) and reconciles
// the fleet against it. Wired to SIGHUP, the spec-file watcher and
// POST /v1/reload.
func (s *Server) Reload() error {
	if s.closing.Load() {
		return errBroadcasterClosed
	}
	raw, err := s.source()
	if err != nil {
		return s.rec.Fail(fmt.Errorf("read spec: %w", err))
	}
	return s.rec.Reconcile(raw)
}

// maintainLoop runs segment maintenance every interval until Close.
func (s *Server) maintainLoop(every time.Duration) {
	defer close(s.maintDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.maintStop:
			return
		case <-t.C:
			if _, err := s.MaintainNow(); err != nil && !errors.Is(err, stream.ErrSinkClosed) {
				s.maint.errors.Add(1)
			}
		}
	}
}

// MaintainNow runs one synchronous segment-maintenance pass (compact,
// replicate, retain — as configured) and folds the result into the
// /metrics counters. The e2e harness calls it for a deterministic pass
// instead of waiting out the ticker.
func (s *Server) MaintainNow() (segment.MaintainResult, error) {
	if s.seg == nil {
		return segment.MaintainResult{}, errors.New("serve: no segment directory to maintain")
	}
	res, err := s.seg.Maintain(s.maintOpt)
	if err != nil {
		return res, err
	}
	s.maint.add(res)
	return res, nil
}

// Close drains and shuts down: new ticks are refused, queued work is
// dispatched, sinks are flushed and closed (sealing the active
// segment), and /v1/actions subscribers are completed. Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closing.Store(true)
		if s.maintStop != nil {
			close(s.maintStop)
			<-s.maintDone
		}
		s.closeErr = s.ing.Close()
	})
	return s.closeErr
}

// tickLine is one POST /v1/ticks JSONL record: either one RSSI tick
// ({"office":"hq-0","rssi":[...]}) or one input notification
// ({"office":"hq-0","input":2}) for the named office. Inputs are
// routed before any tick on a later line, matching the delivery order
// of the synchronous API.
type tickLine struct {
	Office string    `json:"office"`
	RSSI   []float64 `json:"rssi"`
	Input  *int      `json:"input"`
}

// ingestResult is the POST /v1/ticks response body.
type ingestResult struct {
	AcceptedTicks  int    `json:"accepted_ticks"`
	AcceptedInputs int    `json:"accepted_inputs"`
	Flushed        bool   `json:"flushed,omitempty"`
	Error          string `json:"error,omitempty"`
}

// ingestStatus maps a push error to its HTTP status. Anything but a
// closed ingestor or a full queue is the request's fault, a wrong-width
// tick (stream.ErrTickWidth) included: 400.
func ingestStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, stream.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, stream.ErrQueueFull):
		return http.StatusTooManyRequests
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleTicks(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ingestResult{Error: "server shutting down"})
		return
	}
	var res ingestResult
	var err error
	ct := r.Header.Get("Content-Type")
	if ct == ContentTypeFrames || strings.HasPrefix(ct, ContentTypeFrames+";") {
		err = s.ingestFrames(r.Body, &res)
	} else {
		err = s.ingestJSONL(r.Body, &res)
	}
	if err == nil {
		q := r.URL.Query()
		epochStr := q.Get("epoch")
		switch {
		case q.Get("flush") != "1":
			if epochStr != "" {
				err = errors.New("epoch requires flush=1")
			}
		case epochStr != "":
			// Epoch-stamped flush: the cluster wire protocol. The producer
			// drives every dispatch with ?flush=1&epoch=K so each worker
			// emits exactly one tagged frame per epoch (empty included),
			// which is what lets the stream router align and merge the
			// worker streams.
			var epoch uint64
			if epoch, err = strconv.ParseUint(epochStr, 10, 64); err != nil {
				err = fmt.Errorf("bad epoch %q: %w", epochStr, err)
			} else if err = s.ing.FlushEpoch(epoch); err == nil {
				res.Flushed = true
			}
		default:
			if err = s.ing.Flush(); err == nil {
				res.Flushed = true
			}
		}
	}
	status := ingestStatus(err)
	if err != nil {
		res.Error = err.Error()
	}
	writeJSON(w, status, res)
}

// ingestJSONL pushes a body of tick JSONL. Lines are applied in order;
// on a failing line everything before it stays accepted and is
// reported in res.
func (s *Server) ingestJSONL(body io.Reader, res *ingestResult) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec tickLine
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		id, ok := s.rec.IDOf(rec.Office)
		if !ok {
			return fmt.Errorf("line %d: unknown office %q", lineNo, rec.Office)
		}
		switch {
		case rec.Input != nil:
			if err := s.ing.PushInput(id, *rec.Input); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			res.AcceptedInputs++
		case rec.RSSI != nil:
			if err := s.ing.Push(id, rec.RSSI); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			res.AcceptedTicks++
		default:
			return fmt.Errorf("line %d: neither rssi nor input", lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("line %d: %w", lineNo+1, err)
	}
	return nil
}

// ingestFrames pushes a body of wire-framed tick JSONL: each
// CRC-checked frame's payload is one JSONL chunk. A torn or corrupt
// frame rejects the remainder; everything pushed from earlier frames
// stays accepted.
func (s *Server) ingestFrames(body io.Reader, res *ingestResult) error {
	dec := wire.NewDecoder(body)
	for frameNo := 1; ; frameNo++ {
		v, payload, err := dec.DecodeRaw()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("frame %d: %w", frameNo, err)
		}
		if v != wire.V1JSONL {
			return fmt.Errorf("frame %d: unsupported tick codec %v (ticks are JSONL, codec v1)", frameNo, v)
		}
		if err := s.ingestJSONL(bytes.NewReader(payload), res); err != nil {
			return fmt.Errorf("frame %d: %w", frameNo, err)
		}
	}
}

func (s *Server) handleActions(w http.ResponseWriter, r *http.Request) {
	codec := wire.V1JSONL
	if q := r.URL.Query().Get("codec"); q != "" && q != "1" {
		if q != "2" {
			http.Error(w, "unknown codec (want 1 or 2)", http.StatusBadRequest)
			return
		}
		codec = wire.V2Binary
	}
	compress := false
	switch q := r.URL.Query().Get("compress"); q {
	case "", "0":
	case "1":
		compress = true
	default:
		http.Error(w, "bad compress (want 0 or 1)", http.StatusBadRequest)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	buffer := s.cfg.SubscriberBuffer
	if buffer == 0 {
		buffer = DefaultSubscriberBuffer
	}
	sub, err := s.bcast.Subscribe(codec, compress, buffer)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer s.bcast.Unsubscribe(sub)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	// Commit the response headers before the first frame: once the
	// client has them, the subscription is guaranteed live, so every
	// batch dispatched from now on will be delivered (or the connection
	// dropped on overflow) — the ordering handle the e2e harness needs.
	flusher.Flush()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case frame, ok := <-sub.ch:
			if !ok {
				return // server draining, or this subscriber overflowed
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// officeStatus is one office's row in the GET /v1/offices response.
type officeStatus struct {
	Name               string  `json:"name"`
	ID                 int     `json:"id"`
	GID                *int    `json:"gid,omitempty"` // cluster-wide global ID, absent outside a cluster
	Phase              string  `json:"phase"`
	TrainingSamples    int     `json:"training_samples"`
	ObservedGeneration uint64  `json:"observed_generation"`
	LastTransition     string  `json:"last_transition"`
	Since              string  `json:"since"`
	QueueDepth         int     `json:"queue_depth"`
	PushedTicks        uint64  `json:"pushed_ticks"`
	DispatchedTicks    uint64  `json:"dispatched_ticks"`
	DroppedTicks       uint64  `json:"dropped_ticks"`
	Streams            int     `json:"streams"`
	Workstations       int     `json:"workstations"`
	DT                 float64 `json:"dt"`
}

// fleetStatus is the GET /v1/offices response.
type fleetStatus struct {
	SpecGeneration     uint64         `json:"spec_generation"`
	GenerationLag      uint64         `json:"generation_lag"`
	DesiredOffices     int            `json:"desired_offices"`
	LiveOffices        int            `json:"live_offices"`
	Reconciles         uint64         `json:"reconciles"`
	ReconcileErrors    uint64         `json:"reconcile_errors"`
	LastReconcileMs    float64        `json:"last_reconcile_ms"`
	LastReconcileError string         `json:"last_reconcile_error,omitempty"`
	UptimeSec          float64        `json:"uptime_sec"`
	Offices            []officeStatus `json:"offices"`
}

// phaseString spells a core.Phase for the API.
func phaseString(p core.Phase) string {
	switch p {
	case core.PhaseTraining:
		return "training"
	case core.PhaseOnline:
		return "online"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// status assembles the /v1/offices view: the reconciler's desired-vs-
// live bookkeeping enriched with each office's System phase and queue
// counters.
func (s *Server) status() fleetStatus {
	rst, reports := s.rec.Status()
	byID := make(map[int]stream.OfficeStats)
	for _, o := range s.ing.Stats().Offices {
		byID[o.Office] = o
	}
	out := fleetStatus{
		SpecGeneration:     rst.SpecGeneration,
		GenerationLag:      rst.GenerationLag,
		DesiredOffices:     rst.DesiredOffices,
		LiveOffices:        rst.LiveOffices,
		Reconciles:         rst.Reconciles,
		ReconcileErrors:    rst.Errors,
		LastReconcileMs:    float64(rst.LastDuration) / float64(time.Millisecond),
		LastReconcileError: rst.LastError,
		UptimeSec:          time.Since(s.started).Seconds(),
		Offices:            make([]officeStatus, 0, len(reports)),
	}
	for _, rep := range reports {
		row := officeStatus{
			Name:               rep.Name,
			ID:                 rep.ID,
			ObservedGeneration: rep.ObservedGeneration,
			LastTransition:     rep.Transition,
			Since:              rep.Since.UTC().Format(time.RFC3339),
			Streams:            rep.Config.Streams,
			Workstations:       rep.Config.Workstations,
			DT:                 rep.Config.DT,
		}
		if rep.GID >= 0 {
			gid := rep.GID
			row.GID = &gid
		}
		if sys := s.fleet.System(rep.ID); sys != nil {
			row.Phase = phaseString(sys.Phase())
			row.TrainingSamples = sys.TrainingSamples()
		}
		if st, ok := byID[rep.ID]; ok {
			row.QueueDepth = st.Depth
			row.PushedTicks = st.Pushed
			row.DispatchedTicks = st.Dispatched
			row.DroppedTicks = st.Dropped
		}
		out.Offices = append(out.Offices, row)
	}
	return out
}

func (s *Server) handleOffices(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.status())
}

// trainResult is the POST /v1/train response.
type trainResult struct {
	Trained []string `json:"trained"`
	Online  int      `json:"online"`
	Errors  []string `json:"errors,omitempty"`
}

// handleTrain flushes queued work, then moves every training-phase
// office online, in ascending ID order. Offices already online are
// skipped; an office whose training fails (too few samples) stays in
// training and is reported, without blocking the others — late
// spec-rollout joiners train on a later call once they have collected
// enough labelled samples.
func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		writeJSON(w, http.StatusServiceUnavailable, trainResult{Errors: []string{"server shutting down"}})
		return
	}
	if err := s.ing.Flush(); err != nil {
		writeJSON(w, ingestStatus(err), trainResult{Errors: []string{err.Error()}})
		return
	}
	var res trainResult
	live := s.rec.Live()
	sort.Slice(live, func(i, j int) bool { return live[i].ID < live[j].ID })
	for _, o := range live {
		sys := s.fleet.System(o.ID)
		if sys == nil {
			continue // removed since the snapshot
		}
		switch sys.Phase() {
		case core.PhaseOnline:
			res.Online++
		case core.PhaseTraining:
			if err := s.fleet.FinishTrainingOffice(o.ID); err != nil {
				res.Errors = append(res.Errors, fmt.Sprintf("office %q: %v", o.Name, err))
				continue
			}
			res.Trained = append(res.Trained, o.Name)
			res.Online++
		}
	}
	status := http.StatusOK
	if len(res.Errors) > 0 {
		status = http.StatusConflict
	}
	writeJSON(w, status, res)
}

// reloadResult is the POST /v1/reload response.
type reloadResult struct {
	SpecGeneration uint64 `json:"spec_generation"`
	LiveOffices    int    `json:"live_offices"`
	Error          string `json:"error,omitempty"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	err := s.Reload()
	rst, _ := s.rec.Status()
	res := reloadResult{SpecGeneration: rst.SpecGeneration, LiveOffices: rst.LiveOffices}
	status := http.StatusOK
	if err != nil {
		res.Error = err.Error()
		status = http.StatusBadRequest
	}
	writeJSON(w, status, res)
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}
