// Package fadewich is a complete reproduction of "FADEWICH: Fast
// Deauthentication over the Wireless Channel" (Conti, Lovisotto,
// Martinovic, Tsudik — ICDCS 2017): an automatic deauthentication system
// that locks a workstation within seconds of its user walking away, using
// only the effect of the human body on the received signal strength of
// links between cheap wireless sensors.
//
// The package is a facade over the internal subsystems:
//
//   - System (internal/core) — the streaming FADEWICH instance: feed it
//     RSSI ticks and input notifications, get alert/screensaver/
//     deauthentication actions. This is what a deployment runs.
//   - Simulator (internal/sim, internal/rf, internal/agent,
//     internal/office) — the office/radio testbed substitute: generates
//     multi-day RSSI datasets with exact ground truth.
//   - Harness (internal/eval) — regenerates every table and figure of the
//     paper's evaluation from a dataset.
//   - Fleet (internal/engine) — the concurrent fleet layer: shards many
//     independent office Systems across a worker pool with batched tick
//     delivery and a merged, time-ordered action stream. The fleet is an
//     elastic multi-tenant registry: offices carry per-tenant
//     configurations (FleetConfig.PerOffice) and stable,
//     caller-named IDs (a cluster worker runs each office under its
//     cluster-wide gid), and AddOffice/RemoveOffice change the membership
//     at batch boundaries while ticks flow. The same pool parallelises dataset generation
//     and the harness's experiment sweeps, deterministically in the seed.
//   - Streaming (internal/stream) — the asynchronous pipeline on top of
//     the Fleet: an Ingestor with bounded per-office tick queues
//     (block / drop-oldest / error backpressure, created and retired on
//     membership change) and pluggable action Sinks (wire-framed TCP
//     stream, durable segment log, in-memory ring, multi-sink fan-out)
//     fed by a dedicated pump goroutine. Every sink takes each
//     dispatch cycle as one EncodedBatch, so each frame variant is
//     encoded once per cycle however many sinks share it.
//   - Wire + segment log (internal/wire, internal/segment) — the
//     versioned frame codec every sink and consumer shares (magic +
//     version + flags header, length, CRC32C trailer; JSONL payloads,
//     codec v1) and the crash-safe rotating segment store with
//     manifest, torn-frame recovery, TTL retention and filtered replay
//     cursors. cmd/fadewich-tail is the reference consumer.
//   - Control plane (internal/serve) — the long-running service face:
//     cmd/fadewich-serve hosts a live Fleet behind an HTTP API (tick
//     ingest, streamed actions, office status, Prometheus metrics) and
//     reconciles fleet membership against a declarative JSON fleet
//     spec, applying adds, removes and config rollouts at batch
//     boundaries.
//
// Quick start:
//
//	ds, _ := fadewich.GenerateDataset(fadewich.SimConfig{Days: 1, Seed: 7})
//	h, _ := fadewich.NewHarness(ds, fadewich.EvalOptions{})
//	rows, _ := h.Table3(0) // MD performance per sensor count
//
// See the examples/ directory for runnable end-to-end programs.
package fadewich

import (
	"fadewich/internal/agent"
	"fadewich/internal/control"
	"fadewich/internal/core"
	"fadewich/internal/engine"
	"fadewich/internal/eval"
	"fadewich/internal/kma"
	"fadewich/internal/md"
	"fadewich/internal/office"
	"fadewich/internal/re"
	"fadewich/internal/rf"
	"fadewich/internal/segment"
	"fadewich/internal/serve"
	"fadewich/internal/sim"
	"fadewich/internal/stream"
	"fadewich/internal/svm"
)

// System is the streaming FADEWICH instance (training phase →
// FinishTraining → online phase).
type System = core.System

// SystemConfig parameterises a System.
type SystemConfig = core.Config

// Action is a System output (alert transitions, screensaver activations,
// deauthentications).
type Action = core.Action

// Action types emitted by the System.
const (
	ActionAlertEnter     = core.ActionAlertEnter
	ActionAlertExit      = core.ActionAlertExit
	ActionScreensaverOn  = core.ActionScreensaverOn
	ActionDeauthenticate = core.ActionDeauthenticate
)

// Lifecycle phases of a System.
const (
	PhaseTraining = core.PhaseTraining
	PhaseOnline   = core.PhaseOnline
)

// NewSystem builds a streaming System in the training phase.
func NewSystem(cfg SystemConfig) (*System, error) { return core.NewSystem(cfg) }

// Fleet shards many independent office Systems across a worker pool with
// batched tick delivery and a merged time-ordered action stream.
// Membership is elastic: Fleet.AddOffice and Fleet.RemoveOffice join and
// retire tenants (by stable office ID, which AddOffice's caller names)
// while batches are flowing, with changes landing at batch boundaries.
type Fleet = engine.Fleet

// FleetConfig parameterises a Fleet: the initial office count, the shared
// default per-office System configuration, optional PerOffice overrides
// for heterogeneous tenants, and the worker-pool width.
type FleetConfig = engine.FleetConfig

// OfficeAction is one action emitted by one office of a Fleet, tagged
// with the office's stable ID.
type OfficeAction = engine.OfficeAction

// OfficeBatch is one office's tick payload for Fleet.Run, addressed by
// stable office ID.
type OfficeBatch = engine.OfficeBatch

// InputEvent routes a keyboard/mouse notification to one office within a
// Fleet batch.
type InputEvent = engine.InputEvent

// NewFleet builds a multi-office fleet with every office System in the
// training phase. Offices with a FleetConfig.PerOffice entry use that
// configuration; the rest share the FleetConfig.System default.
// Deterministic: the merged action stream is identical for every worker
// count.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return engine.NewFleet(cfg) }

// Ingestor is the asynchronous front door of a Fleet: bounded per-office
// tick queues feeding a dispatcher goroutine, with the merged action
// stream pumped to a pluggable Sink. Ingestor.AddOffice and
// Ingestor.RemoveOffice change the fleet membership while ticks flow —
// joiners get a fresh queue and participate from the next dispatch on;
// removed offices drain their queued ticks as a final flush before the
// queue is retired.
type Ingestor = stream.Ingestor

// IngestorConfig parameterises an Ingestor (queue capacity, backpressure
// policy, sink, synchronous tap).
type IngestorConfig = stream.Config

// IngestorStats is a snapshot of an Ingestor's per-office queue
// depth/drop counters (ascending by office ID, with retired-office
// aggregates) and dispatch totals.
type IngestorStats = stream.Stats

// OfficeQueueStats are one office's ingestion queue counters.
type OfficeQueueStats = stream.OfficeStats

// BackpressurePolicy selects what Ingestor.Push does when an office's
// tick queue is full.
type BackpressurePolicy = stream.Policy

// Backpressure policies.
const (
	OnFullBlock      = stream.Block
	OnFullDropOldest = stream.DropOldest
	OnFullError      = stream.ErrorOnFull
)

// NewIngestor wraps a Fleet in the asynchronous ingestion layer and
// starts its dispatcher (and, with a sink configured, pump) goroutines.
func NewIngestor(fleet *Fleet, cfg IngestorConfig) (*Ingestor, error) {
	return stream.NewIngestor(fleet, cfg)
}

// Sink consumes the dispatch cycles of the merged fleet action stream:
// WriteEncoded receives each cycle's EncodedBatch.
type Sink = stream.Sink

// EncodedBatch is one dispatch cycle as a Sink receives it: the batch,
// its epoch if any, and each wire-frame variant encoded at most once.
type EncodedBatch = stream.EncodedBatch

// TCPSink streams the action stream to a TCP peer as wire frames,
// redialing with capped exponential backoff on connection errors.
type TCPSink = stream.TCPSink

// RingSink keeps the most recent actions in a fixed in-memory ring.
type RingSink = stream.RingSink

// NewTCPSink dials addr and streams wire-framed action batches to it.
func NewTCPSink(addr string) (*TCPSink, error) { return stream.NewTCPSink(addr) }

// NewRingSink returns a ring holding up to capacity actions (0 selects
// the default of 1024).
func NewRingSink(capacity int) *RingSink { return stream.NewRingSink(capacity) }

// NewMultiSink hands every cycle's EncodedBatch to all the given
// sinks, so each wire-frame variant is encoded once for the members
// that share it.
func NewMultiSink(sinks ...Sink) Sink { return stream.NewEncodeOnceSink(sinks...) }

// SegmentSink persists the action stream to a durable segment log:
// rotating segment files of wire frames plus an atomically-updated
// manifest, replayable after a crash up to the last complete frame.
type SegmentSink = stream.SegmentSink

// SegmentConfig parameterises a segment log: directory, rotation
// thresholds (size and age), fsync policy and compression.
type SegmentConfig = segment.Config

// SegmentFsyncPolicy selects how hard the segment log pushes frames to
// stable storage.
type SegmentFsyncPolicy = segment.FsyncPolicy

// Segment fsync policies.
const (
	SegmentFsyncNever  = segment.FsyncNever
	SegmentFsyncRotate = segment.FsyncRotate
	SegmentFsyncAlways = segment.FsyncAlways
)

// SegmentReader replays a segment directory frame by frame, recovering
// the intact prefix after a crash (detecting — and with
// SegmentReadOptions.Repair truncating — a torn final frame) and
// following a live writer across polls.
type SegmentReader = segment.Reader

// SegmentReadOptions filter a segment replay (office set, office-clock
// time range) and opt into torn-tail repair.
type SegmentReadOptions = segment.Options

// NewSegmentSink opens (creating if needed) a segment directory and
// returns a sink appending the action stream to it as wire frames.
func NewSegmentSink(cfg SegmentConfig) (*SegmentSink, error) { return stream.NewSegmentSink(cfg) }

// OpenSegmentDir opens a segment directory for replay or tailing.
func OpenSegmentDir(dir string, opt SegmentReadOptions) (*SegmentReader, error) {
	return segment.OpenDir(dir, opt)
}

// ServeConfig parameterises the control-plane Server behind
// cmd/fadewich-serve: the spec source (a func returning the raw fleet
// spec, read at startup and on every reload), ingestion knobs, sinks.
type ServeConfig = serve.Config

// Server hosts a live Fleet+Ingestor behind the fadewich-serve HTTP
// API (tick ingest, action stream, office status, train, reload,
// metrics) and reconciles fleet membership against a declarative
// fleet-spec file. It implements http.Handler; Close drains.
type Server = serve.Server

// FleetSpec is the declarative fleet description fadewich-serve
// reconciles against: desired offices with a shared defaults block.
type FleetSpec = serve.Spec

// FleetOfficeSpec describes one desired office in a FleetSpec: a stable
// name plus its layout, sensors and MD thresholds.
type FleetOfficeSpec = serve.OfficeSpec

// ResolvedOffice is one desired office after defaulting and
// validation: its name and fully-resolved System configuration.
type ResolvedOffice = serve.ResolvedOffice

// NewServer validates the spec, starts the ingestion machinery and
// brings the spec's offices in through the reconciler, the same path
// every reload takes.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// ParseFleetSpec decodes a fleet spec from JSON, rejecting unknown
// fields.
func ParseFleetSpec(data []byte) (*FleetSpec, error) { return serve.ParseSpec(data) }

// Layout is an office floor plan: workstations, wall sensors, the door.
type Layout = office.Layout

// PaperOffice returns the 6 m × 3 m three-workstation office of the
// paper's Fig 6 with its nine wall sensors.
func PaperOffice() *Layout { return office.Paper() }

// SmallOffice returns a compact two-workstation office for generalisation
// experiments.
func SmallOffice() *Layout { return office.Small() }

// WideOffice returns a larger four-workstation office for generalisation
// experiments.
func WideOffice() *Layout { return office.Wide() }

// SimConfig parameterises dataset generation.
type SimConfig = sim.Config

// Dataset is a generated multi-day RSSI dataset with ground truth.
type Dataset = sim.Dataset

// Trace is one simulated day.
type Trace = sim.Trace

// GenerateDataset runs the office/radio simulation. Deterministic in
// cfg.Seed.
func GenerateDataset(cfg SimConfig) (*Dataset, error) { return sim.Generate(cfg) }

// RFConfig parameterises the radio propagation model.
type RFConfig = rf.Config

// RFDisable is the sentinel for RFConfig fields whose zero value would
// otherwise select a default: e.g. QuantStepDB: RFDisable turns receiver
// quantisation off and InterferencePerHour: RFDisable disables bursts,
// where a literal 0 means "use the default". See rf.Disable for the full
// field list.
const RFDisable = rf.Disable

// AgentConfig parameterises simulated user behaviour.
type AgentConfig = agent.Config

// AgentEvent is one ground-truth event recorded by the simulator.
type AgentEvent = agent.Event

// EvalOptions configures the experiment harness.
type EvalOptions = eval.Options

// Harness regenerates the paper's tables and figures from a dataset.
type Harness = eval.Harness

// NewHarness wraps a dataset for evaluation.
func NewHarness(ds *Dataset, opt EvalOptions) (*Harness, error) { return eval.NewHarness(ds, opt) }

// DefaultEvalOptions returns the paper's evaluation configuration.
func DefaultEvalOptions() EvalOptions { return eval.DefaultOptions() }

// MDConfig parameterises the movement detector.
type MDConfig = md.Config

// FeatureConfig parameterises RE signature extraction.
type FeatureConfig = re.FeatureConfig

// SVMConfig parameterises the classifier.
type SVMConfig = svm.Config

// ControlParams are the controller timing constants (t∆, t_ID, t_ss, T).
type ControlParams = control.Params

// InputModel is the Mikkelsen et al. keyboard/mouse simulation.
type InputModel = kma.InputModel

// DefaultControlParams returns the paper's constants: t∆ = 4.5 s,
// t_ID = 5 s, t_ss = 3 s, T = 300 s.
func DefaultControlParams() ControlParams { return control.DefaultParams() }
