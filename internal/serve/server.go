package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fadewich/internal/core"
	"fadewich/internal/engine"
	"fadewich/internal/segment"
	"fadewich/internal/stream"
	"fadewich/internal/wire"
)

// Config parameterises a Server.
type Config struct {
	// SpecSource returns the raw fleet spec (required): the declarative
	// desired membership, read once at startup and again by every
	// Reload. A single-process daemon reads its spec file; worker mode
	// fetches the coordinator-assigned sub-spec over HTTP.
	SpecSource func() ([]byte, error)
	// Queue and OnFull pass through to the ingestor (stream.Config).
	// Dispatch is driven by ?flush=1, by a Block-policy queue that
	// fills, and by drain.
	Queue  int
	OnFull stream.Policy
	// Workers sizes the fleet's worker pool (0 selects GOMAXPROCS).
	Workers int
	// SegmentDir, when set, persists the action stream to a rotating
	// segment log there, under SegmentMaxBytes/SegmentMaxAge/Fsync. A
	// drained shutdown seals the active segment.
	SegmentDir      string
	SegmentMaxBytes int64
	SegmentMaxAge   time.Duration
	Fsync           segment.FsyncPolicy
	// Compress deflates frame bodies (wire.FlagCompressed) on the
	// segment log and the forward stream when they clear the
	// compression threshold; decoded output is byte-identical either
	// way. /v1/actions subscribers opt in per connection (?compress=1)
	// regardless of this knob.
	Compress bool
	// Retention, when positive, deletes sealed segments older than it
	// (manifest-first; the active segment is never touched) on a pass
	// every retentionEvery(Retention). Needs SegmentDir.
	Retention time.Duration
	// Forward, when set, streams every dispatched batch to this TCP
	// address as wire frames, the fan-in feed for a downstream
	// fadewich-tail or router tier.
	Forward string
	// ForwardSource, when non-zero, makes this a cluster worker: it runs
	// each office under the gid its spec carries (so the forward, the
	// segment log, /v1/actions and /v1/offices all name offices by gid),
	// and the forward speaks the cluster wire protocol: frames are
	// tagged with this worker source ID and the producer-driven epoch
	// (?flush=1&epoch=K), and shutdown sends a final frame. Requires
	// Forward and a spec whose offices all carry gids. Only an epoch
	// flush emits on a worker (see stream.Config.Epochs), so POST
	// /v1/ticks rejects ?flush=1 without an epoch. A tagged worker may
	// run an empty spec: the hash may owe it nothing right now, and it
	// must still emit its per-epoch watermark frames.
	ForwardSource uint8
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
	mux     *http.ServeMux
	started time.Time

	// TTL retention: the loop goroutine runs Retain on a ticker; the
	// counters accumulate its results for /metrics.
	retainStop chan struct{}
	retainDone chan struct{}
	retain     retainCounters

	closing   atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

// retainCounters aggregates retention results across passes.
type retainCounters struct {
	passes, errors         atomic.Uint64
	segments, deletedBytes atomic.Uint64
}

// retentionEvery is the retention pass interval for a TTL: often
// enough that a sealed segment outlives its TTL by at most half of it,
// and at least once a minute (a millisecond floor keeps the ticker's
// period positive for sub-millisecond TTLs).
func retentionEvery(ttl time.Duration) time.Duration {
	return max(min(ttl/2, time.Minute), time.Millisecond)
}

// New validates the spec, opens the sinks and starts the ingestor over
// an empty fleet; the spec then reaches the fleet through the same
// apply step every reload uses, so offices join in spec order under
// IDs 0..n−1 (on a tagged worker, under their gids). A spec that fails
// validation opens no sink: no segment directory is created and no
// forward address is dialled.
func New(cfg Config) (*Server, error) {
	if cfg.SpecSource == nil {
		return nil, errors.New("serve: no fleet-spec source")
	}
	if cfg.ForwardSource != 0 && cfg.Forward == "" {
		return nil, errors.New("serve: forward source set without a forward address")
	}
	if cfg.SegmentDir == "" && cfg.Retention > 0 {
		return nil, errors.New("serve: segment retention needs a segment directory")
	}
	raw, err := cfg.SpecSource()
	if err != nil {
		return nil, fmt.Errorf("serve: fleet spec: %w", err)
	}
	tagged := cfg.ForwardSource != 0
	resolved, err := resolveSpec(raw, tagged)
	if err != nil {
		return nil, err
	}
	fleet, err := engine.NewFleet(engine.FleetConfig{Workers: cfg.Workers})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}

	s := &Server{cfg: cfg, fleet: fleet, bcast: newBroadcaster(), started: time.Now()}
	sinks := []stream.Sink{s.bcast}
	if cfg.SegmentDir != "" {
		seg, err := stream.NewSegmentSink(segment.Config{
			Dir:             cfg.SegmentDir,
			MaxSegmentBytes: cfg.SegmentMaxBytes,
			MaxSegmentAge:   cfg.SegmentMaxAge,
			Fsync:           cfg.Fsync,
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
		fwd.Compress = cfg.Compress
		fwd.Source = cfg.ForwardSource
		s.fwd = fwd
		sinks = append(sinks, fwd)
	}
	// Encode-once fan-out: any frame variant (plain or compressed) a
	// member wants — the segment log, a broadcaster subscriber, an
	// untagged forward — is encoded exactly once per dispatch and shared
	// read-only; a tagged forward encodes its own tagged frame.
	sink := stream.NewEncodeOnceSink(sinks...)

	s.ing, err = stream.NewIngestor(fleet, stream.Config{
		Queue:  cfg.Queue,
		OnFull: cfg.OnFull,
		Sink:   sink,
		// A tagged worker's output leaves only in epoch frames.
		Epochs: tagged,
	})
	if err != nil {
		sink.Close()
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.rec = newReconciler(s.ing, tagged)
	if err := s.rec.start(raw, resolved); err != nil {
		s.ing.Close()
		return nil, fmt.Errorf("serve: %w", err)
	}

	if cfg.Retention > 0 {
		s.retainStop, s.retainDone = make(chan struct{}), make(chan struct{})
		go s.retainLoop(retentionEvery(cfg.Retention))
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

// Segment exposes the segment sink, nil without Config.SegmentDir.
func (s *Server) Segment() *stream.SegmentSink { return s.seg }

// Forwarder exposes the TCP forward sink, nil without Config.Forward.
func (s *Server) Forwarder() *stream.TCPSink { return s.fwd }

// errShuttingDown is Reload's answer once Close has begun: a drain, not
// a fault of the spec or the request.
var errShuttingDown = errors.New("serve: server shutting down")

// Reload re-reads Config.SpecSource (the spec file, or in worker mode
// the coordinator's sub-spec endpoint) and reconciles the fleet against
// it. Wired to SIGHUP, the -watch ticker and POST /v1/reload. Once Close
// has begun it returns errShuttingDown, or an error wrapping
// stream.ErrClosed when the drain overtook the reconcile.
func (s *Server) Reload() error {
	if s.closing.Load() {
		return errShuttingDown
	}
	raw, err := s.cfg.SpecSource()
	if err != nil {
		return s.rec.Fail(fmt.Errorf("read spec: %w", err))
	}
	return s.rec.Reconcile(raw)
}

// retainLoop runs TTL retention every interval until Close.
func (s *Server) retainLoop(every time.Duration) {
	defer close(s.retainDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.retainStop:
			return
		case <-t.C:
			res, err := s.seg.Retain(s.cfg.Retention)
			if err != nil {
				if !errors.Is(err, stream.ErrSinkClosed) {
					s.retain.errors.Add(1)
				}
				continue
			}
			s.retain.passes.Add(1)
			s.retain.segments.Add(uint64(res.Segments))
			s.retain.deletedBytes.Add(uint64(res.Bytes))
		}
	}
}

// Close drains and shuts down: new ticks are refused, queued work is
// dispatched, sinks are flushed and closed (sealing the active
// segment), and /v1/actions subscribers are completed. Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closing.Store(true)
		if s.retainStop != nil {
			close(s.retainStop)
			<-s.retainDone
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

// errUntaggedFlush answers POST /v1/ticks?flush=1 without an epoch on
// a tagged-forwarding worker: there only an epoch flush emits (see
// stream.Config.Epochs), so a bare flush could not do what it asks.
// The ticks stay queued for the next epoch flush.
var errUntaggedFlush = errors.New("tagged forwarding: flush=1 requires epoch=K")

// ticksBodyTimeout bounds how long one POST /v1/ticks may take to
// deliver its body, so a client that trickles one cannot hold a
// connection and its handler for as long as it likes. It is generous
// for the largest body: the fleet runs a flushed POST while it decodes
// it, and at the rate a 5 MB training window goes through (well under
// a second) a 64 MiB body needs seconds, not minutes. The daemon's
// other connection bounds, on headers and idle keep-alives, are set in
// fadewich-serve's newHTTPServer. A var so tests can shorten it.
var ticksBodyTimeout = 2 * time.Minute

// ingestStatus maps a push error to its HTTP status. A body over the
// limit is 413 and one past its read deadline 408; anything but those,
// a closed ingestor or a full queue is the request's fault, a
// wrong-width tick (stream.ErrTickWidth) included: 400.
func ingestStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, stream.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, stream.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, os.ErrDeadlineExceeded):
		return http.StatusRequestTimeout
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleTicks(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ingestResult{Error: "server shutting down"})
		return
	}
	flush, epoch, hasEpoch, queryErr := s.flushPlan(r.URL.Query())
	// A training POST carries one window of every office's ticks (about
	// 5 MB of integer-dBm lines for 128 offices × 500 ticks); the body is
	// bounded at the wire layer's 64 MiB payload limit. A body that will
	// be flushed is run through the fleet while it is still being
	// decoded: once the decode window (2×GOMAXPROCS chunks of 64 KiB) has
	// filled, every chunk pushed but the last is followed by an Advance,
	// which holds the actions for the flush. So the queues stage about
	// one chunk of a large POST, not all of it, and the emitted batch is
	// the same.
	var advance func() error
	if flush {
		advance = s.ing.Advance
	}
	var res ingestResult
	// The deadline covers the body only: it is cleared once the body is
	// read, so a long flush cannot trip the server's background read.
	// A writer with no connection under it (httptest's recorder) has no
	// deadline to set.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(ticksBodyTimeout))
	body := http.MaxBytesReader(w, r.Body, wire.MaxPayloadBytes)
	err := s.ingestJSONL(body, &res, advance)
	_ = rc.SetReadDeadline(time.Time{})
	if err == nil {
		err = queryErr
	}
	if err == nil && flush {
		if hasEpoch {
			// Epoch-stamped flush: the cluster wire protocol. The producer
			// drives every dispatch with ?flush=1&epoch=K so each worker
			// emits exactly one tagged frame per epoch (empty included),
			// which is what lets the stream router align and merge the
			// worker streams.
			err = s.ing.FlushEpoch(epoch)
		} else {
			err = s.ing.Flush()
		}
		res.Flushed = err == nil
	}
	status := ingestStatus(err)
	if err != nil {
		res.Error = err.Error()
	}
	writeJSON(w, status, res)
}

// flushPlan reads a POST /v1/ticks query: whether the request ends in
// a flush, and with which epoch. A query that asks for no valid flush
// (an epoch without flush=1, a bad epoch, or on a tagged worker a flush
// without one) returns its error, reported once the body is ingested;
// its ticks stay queued.
func (s *Server) flushPlan(q url.Values) (flush bool, epoch uint64, hasEpoch bool, err error) {
	epochStr := q.Get("epoch")
	switch {
	case q.Get("flush") != "1":
		if epochStr != "" {
			err = errors.New("epoch requires flush=1")
		}
		return false, 0, false, err
	case epochStr == "" && s.cfg.ForwardSource != 0:
		return false, 0, false, errUntaggedFlush
	case epochStr == "":
		return true, 0, false, nil
	}
	if epoch, err = strconv.ParseUint(epochStr, 10, 64); err != nil {
		return false, 0, false, fmt.Errorf("bad epoch %q: %w", epochStr, err)
	}
	return true, epoch, true, nil
}

func (s *Server) handleActions(w http.ResponseWriter, r *http.Request) {
	if q := r.URL.Query().Get("codec"); q != "" && q != "1" {
		http.Error(w, "unknown codec (want 1)", http.StatusBadRequest)
		return
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
	// subscriberBuffer is each connection's in-flight frame budget; a
	// consumer further behind is dropped.
	const subscriberBuffer = 256
	sub, err := s.bcast.Subscribe(compress, subscriberBuffer)
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
	for _, o := range s.rec.Live() {
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
	switch {
	case errors.Is(err, errShuttingDown) || errors.Is(err, stream.ErrClosed):
		// A drain is not the request's fault: 503, as /v1/ticks and
		// /v1/train answer.
		status = http.StatusServiceUnavailable
	case err != nil:
		status = http.StatusBadRequest
	}
	if err != nil {
		res.Error = err.Error()
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
