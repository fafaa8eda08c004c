// Package stream is the asynchronous ingestion-and-delivery layer on top
// of engine.Fleet. The fleet's synchronous API (Run in, merged actions
// out) couples tick arrival to fleet dispatch: every producer must
// assemble a full batch and wait for it to run. Package stream decouples
// the two ends with an Ingestor — bounded per-office tick queues feeding
// a dispatcher goroutine — and streams the merged action output to
// pluggable Sink backends (JSONL log files, wire-framed TCP streams, a
// durable segment log, an in-memory ring, fan-out to several at once)
// on a dedicated pump goroutine. The byte formats all live in package
// wire; the segment log's storage layer lives in package segment.
//
// Data flow:
//
//	Push / PushInput            AddOffice / RemoveOffice
//	      │  (bounded per-office queues;      │ (queues created clean /
//	      │   Block / DropOldest /            │  drained then retired,
//	      │   ErrorOnFull backpressure,       │  at a batch boundary)
//	      │   depth and drop counters)        │
//	      ▼                                   ▼
//	dispatcher goroutine ──► engine.Fleet.Run ──► merged, time-
//	      │                                       ordered actions
//	      ├──► Config.OnBatch (synchronous tap)
//	      ▼
//	pump goroutine ──► Sink.Write (LogSink / TCPSink / SegmentSink /
//	                               RingSink / Multi)
//
// Backpressure: every office has its own queue, so one slow or bursty
// office fills only its own queue and cannot stall ingestion for the
// rest of the fleet; what happens when a queue is full is the Policy.
// A slow Sink propagates backpressure the other way — the pump's batch
// channel fills, the dispatcher blocks handing off, queues fill, and the
// per-office policy engages — while a failing Sink never blocks the
// pipeline: the pump records the first error (Err, Flush, Close all
// surface it) and drains subsequent batches so the dispatcher and
// producers cannot deadlock.
//
// Concurrency: the queues are independent in the lock sense too. Each
// officeQueue carries its own mutex (and space condition for Block
// pushers), so producers feeding different offices never serialise
// against each other on the hot Push path; membership is a copy-on-write
// snapshot read via one atomic load, and queue depths, the live
// auto-batch threshold and the dispatch totals are atomics. The
// Ingestor-level mutex is reduced to the dispatcher's control state
// (flush tickets, latency trigger, close, first error). Lock order is
// officeQueue.mu before Ingestor.mu: Push signals the dispatcher while
// holding its queue lock, and nothing acquires a queue lock while
// holding the control lock — the dispatcher inspects queue state through
// the atomics and takes queue locks only outside its control sections.
//
// Elastic membership: offices are addressed by the fleet's stable IDs.
// AddOffice registers the office with the fleet and creates its queue in
// one step, so the tenant starts clean at the next dispatch. RemoveOffice
// first forces a full flush — the office's already-queued ticks are
// dispatched and their actions emitted through the sink as the office's
// final flush — then retires the queue and removes the office from the
// fleet, folding its counters into the retired totals of Stats.
//
// Ordering and determinism: a dispatch cycle snapshots everything queued
// and runs it as one fleet batch, so the sink observes the concatenation
// of Run outputs — each batch internally ordered by (time, office),
// exactly the total order the synchronous API returns. A single producer
// that pushes the same ticks and calls Flush at the same boundaries as
// its synchronous Run calls therefore obtains a byte-identical stream
// (this is tested against a 64-office fleet).
package stream

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fadewich/internal/core"
	"fadewich/internal/engine"
	"fadewich/internal/wire"
)

// DefaultQueue is the per-office tick queue capacity selected when
// Config.Queue is zero (≈51 s of paper-rate samples per office).
const DefaultQueue = 256

// Policy selects what Push does when an office's tick queue is full.
type Policy int

const (
	// Block makes Push wait until the dispatcher drains the office's
	// queue. No ticks are lost; arrival slows to dispatch speed.
	Block Policy = iota
	// DropOldest evicts the oldest queued tick to make room, counting it
	// in the office's drop counter. Arrival never blocks; the office's
	// clock advances only by the ticks that survive.
	DropOldest
	// ErrorOnFull makes Push fail fast with ErrQueueFull, leaving the
	// queue unchanged (the rejected tick is counted as dropped).
	ErrorOnFull
)

// String returns the CLI spelling of the policy (block, drop-oldest,
// error).
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case DropOldest:
		return "drop-oldest"
	case ErrorOnFull:
		return "error"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy maps the CLI spellings block, drop-oldest and error back to
// a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block":
		return Block, nil
	case "drop-oldest":
		return DropOldest, nil
	case "error":
		return ErrorOnFull, nil
	default:
		return 0, fmt.Errorf("stream: unknown backpressure policy %q (want block, drop-oldest or error)", s)
	}
}

// Errors returned by the Ingestor.
var (
	// ErrQueueFull is returned by Push under the ErrorOnFull policy when
	// the office's queue has no room.
	ErrQueueFull = errors.New("stream: office tick queue full")
	// ErrClosed is returned by Push, PushInput, Flush and the membership
	// methods after Close.
	ErrClosed = errors.New("stream: ingestor closed")
	// ErrUnknownOffice is returned when an office ID does not name a
	// member of the fleet (never registered, or already removed).
	ErrUnknownOffice = errors.New("stream: office is not a member of the fleet")
	// ErrTickWidth is returned by Push when a tick's sample count differs
	// from the office's configured stream count.
	ErrTickWidth = errors.New("stream: tick width does not match the office's stream count")
)

// Config parameterises an Ingestor.
type Config struct {
	// Queue is the per-office tick queue capacity. 0 selects
	// DefaultQueue.
	Queue int
	// OnFull is the backpressure policy applied by Push when an office's
	// queue is full. The zero value is Block.
	OnFull Policy
	// BatchTicks, when positive, auto-dispatches as soon as any office
	// has that many ticks queued, without waiting for a Flush. Leave it
	// zero for strictly Flush-driven (deterministic) cadence.
	BatchTicks int
	// AdaptiveBatch, in free-running mode (BatchTicks > 0), scales the
	// auto-dispatch threshold from the queue depth observed at each
	// snapshot: a backlog of at least twice the threshold doubles it
	// (larger batches amortise dispatch overhead when producers are
	// ahead), a depth at or below half halves it (small batches favour
	// latency when the stream is sparse), clamped to [BatchTicks,
	// Queue]. BatchTicks is the floor and the starting point; requires
	// BatchTicks > 0. Thresholds steer only *when* batches dispatch,
	// never their content or per-office order. Pair it with
	// MaxBatchLatency in free-running deployments: the threshold only
	// decays at a dispatch, so once a burst has raised it, a stream
	// that turns sparse (and never Flushes) needs the latency trigger
	// as the backstop that keeps dispatching — and decaying — at all.
	AdaptiveBatch bool
	// MaxBatchLatency, when positive, bounds how long queued work may
	// wait for a dispatch: a wall-clock trigger fires at most that long
	// after the first tick (or input event) queued since the last
	// dispatch, so idle or slow offices flush promptly without a
	// caller-driven Flush or a filled BatchTicks threshold. Leave it zero
	// for strictly caller-driven cadence. The trigger only affects *when*
	// batches dispatch, never their content or order.
	MaxBatchLatency time.Duration
	// Sink, when non-nil, receives every dispatched batch of the merged
	// action stream on the pump goroutine. The Ingestor owns the sink
	// from this point: Close flushes and closes it.
	Sink Sink
	// OnBatch, when non-nil, is called synchronously on the dispatcher
	// goroutine with every non-empty dispatched batch, before the batch
	// is handed to the pump. It is the in-process tap for callers that
	// need the actions back (Flush returns only after OnBatch does).
	OnBatch func([]engine.OfficeAction)
}

// officeQueue is one office's bounded tick queue plus its counters. Each
// queue has its own lock, so producers feeding different offices never
// contend; depth and pendN mirror len(ticks) and len(pend) as atomics so
// the dispatcher's wake-up predicates can scan the fleet without taking
// any queue lock.
type officeQueue struct {
	// width is the office's configured stream count, the sample count
	// every pushed tick must have. Immutable after creation.
	width int
	mu    sync.Mutex
	space sync.Cond // Block-policy pushers wait for queue space
	ticks [][]float64
	// base is the number of ticks ever removed from the front of the
	// queue (dispatched or dropped); base+len(ticks) is the sequence
	// number the next pushed tick will get. Input events record the
	// sequence number they were pushed at, so the dispatcher can place
	// them at the right tick of the batch even after drops.
	base       uint64
	pushed     uint64
	dispatched uint64
	dropped    uint64
	// pend holds the office's queued input notifications (the office ID
	// is implicit; the dispatcher emits them office by office, which is
	// equivalent because the fleet routes and orders events per office).
	pend []pendingInput
	// retired marks a queue whose office has been removed (its counters
	// folded into the retired totals): pushes fail, snapshots skip it.
	retired bool
	// thresholdHit latches the auto-dispatch wake-up: the first Push at
	// or past the live threshold signals the dispatcher, later ones
	// stay quiet until the next snapshot resets the latch — one control-
	// mutex acquisition per office per dispatch cycle instead of one per
	// queued tick. The dispatcher independently re-checks thresholdDue
	// at the end of every cycle, so a threshold lowered mid-climb is
	// still noticed.
	thresholdHit bool
	// depth and pendN mirror len(ticks) and len(pend) for the
	// dispatcher's lock-free threshold/drain scans.
	depth atomic.Int64
	pendN atomic.Int64
	// free recycles dispatched (or evicted) sample slices back to Push,
	// and spare recycles the previous snapshot's tick-header array, so a
	// steady-state Push/dispatch cycle allocates nothing: each office
	// ping-pongs between two header arrays and at most queue-capacity
	// sample slices.
	free  [][]float64
	spare [][]float64
}

// newOfficeQueue returns an empty queue for an office with width
// streams, its condition wired up.
func newOfficeQueue(width int) *officeQueue {
	q := &officeQueue{width: width}
	q.space.L = &q.mu
	return q
}

// recycleTick returns one sample slice to the office's freelist, capped
// at the queue capacity (more can never be in flight for one office).
func (q *officeQueue) recycleTick(tick []float64, queue int) {
	if len(q.free) < queue {
		q.free = append(q.free, tick)
	}
}

// pendingInput is a queued input notification: deliver to workstation ws
// before the office's tick with sequence number seq.
type pendingInput struct {
	ws  int
	seq uint64
}

// membership is the copy-on-write membership snapshot: the member office
// IDs (ascending) and their queues. Readers load it with one atomic
// load; AddOffice and RemoveOffice swap in a fresh copy under the
// control mutex. The ids slice and map are immutable once published.
type membership struct {
	ids []int
	q   map[int]*officeQueue
}

// Ingestor is the asynchronous front door of an engine.Fleet: producers
// Push per-office RSSI ticks (and PushInput notifications) into bounded
// queues; a dispatcher goroutine batches whatever is queued through
// Fleet.Run and forwards the merged action stream to the configured Sink
// via the pump goroutine. Offices are addressed by the fleet's stable
// IDs; AddOffice and RemoveOffice change the membership while ticks flow.
//
// All methods are safe for concurrent use. The wrapped Fleet's membership
// must only be changed through the Ingestor while it is open, and the
// Fleet must not be driven directly.
type Ingestor struct {
	fleet      *engine.Fleet
	queue      int
	onFull     Policy
	batchTicks int
	adaptive   bool
	maxLatency time.Duration
	sink       Sink
	onBatch    func([]engine.OfficeAction)

	// members is the copy-on-write membership snapshot; see membership.
	members atomic.Pointer[membership]
	// closedFlag mirrors closed for lock-free Push/PushInput checks.
	closedFlag atomic.Bool
	// needSpace counts Block-policy pushers waiting for a dispatch.
	needSpace atomic.Int64
	// effBatch is the live auto-dispatch threshold: fixed at batchTicks
	// normally, scaled within [batchTicks, queue] under AdaptiveBatch.
	effBatch atomic.Int64
	// nBatches/nActions are the dispatch totals.
	nBatches atomic.Uint64
	nActions atomic.Uint64
	// pendingNanos is the MaxBatchLatency clock: the UnixNano of the
	// first tick or input event queued since the last dispatch, 0 when
	// nothing is pending. Armed by a Push/PushInput CAS, cleared by the
	// dispatcher just before it snapshots.
	pendingNanos atomic.Int64

	// mu is the control mutex: dispatcher wake-up and completion state
	// only. Never acquire an officeQueue.mu while holding it (Push takes
	// them in the opposite order).
	mu   sync.Mutex
	work sync.Cond // dispatcher waits for work
	done sync.Cond // Flush waiters wait for their dispatch cycle
	// retired accumulates the counters of offices removed from the
	// fleet, so fleet-wide Stats totals survive churn.
	retired OfficeStats
	// flushSeq counts flush requests; doneSeq is the highest request
	// fully served (dispatch ran over a queue snapshot taken at or after
	// the request). Close issues a final flush request of its own.
	flushSeq, doneSeq uint64
	closed            bool
	err               error
	// epochVal/epochSet carry a FlushEpoch caller's epoch number to the
	// dispatch cycle that serves its ticket; the cycle consumes them
	// under the lock and stamps its pump hand-off with the epoch.
	epochVal uint64
	epochSet bool
	// latencyDue is set by the latency goroutine when the oldest queued
	// work has waited past MaxBatchLatency; the dispatcher treats it
	// like a flush trigger.
	latencyDue bool

	// batchBuf/evsBuf are the dispatcher's reusable snapshot buffers;
	// only the dispatcher goroutine touches them.
	batchBuf []engine.OfficeBatch
	evsBuf   []engine.InputEvent

	pumpCh         chan pumpItem
	pumpDone       chan struct{}
	dispatcherDone chan struct{}
	latencyKick    chan struct{}
	latencyStop    chan struct{}
	latencyDone    chan struct{}
}

// NewIngestor wraps the fleet in an asynchronous ingestion layer and
// starts its dispatcher (and, with a Sink configured, pump) goroutines.
// Close releases them.
func NewIngestor(fleet *engine.Fleet, cfg Config) (*Ingestor, error) {
	if fleet == nil {
		return nil, errors.New("stream: nil fleet")
	}
	if cfg.Queue < 0 {
		return nil, fmt.Errorf("stream: negative queue capacity %d", cfg.Queue)
	}
	queue := cfg.Queue
	if queue == 0 {
		queue = DefaultQueue
	}
	if cfg.BatchTicks > queue {
		return nil, fmt.Errorf("stream: batch ticks %d exceed queue capacity %d", cfg.BatchTicks, queue)
	}
	if cfg.AdaptiveBatch && cfg.BatchTicks <= 0 {
		return nil, errors.New("stream: AdaptiveBatch needs BatchTicks > 0 as its floor")
	}
	if cfg.MaxBatchLatency < 0 {
		return nil, fmt.Errorf("stream: negative max batch latency %v", cfg.MaxBatchLatency)
	}
	in := &Ingestor{
		fleet:          fleet,
		queue:          queue,
		onFull:         cfg.OnFull,
		batchTicks:     cfg.BatchTicks,
		adaptive:       cfg.AdaptiveBatch,
		maxLatency:     cfg.MaxBatchLatency,
		sink:           cfg.Sink,
		onBatch:        cfg.OnBatch,
		dispatcherDone: make(chan struct{}),
	}
	in.effBatch.Store(int64(cfg.BatchTicks))
	m := &membership{q: make(map[int]*officeQueue)}
	for _, id := range fleet.IDs() {
		oc, _ := fleet.Config(id)
		m.q[id] = newOfficeQueue(oc.Streams)
		m.ids = append(m.ids, id)
	}
	in.members.Store(m)
	in.work.L = &in.mu
	in.done.L = &in.mu
	if in.sink != nil {
		in.pumpCh = make(chan pumpItem, 8)
		in.pumpDone = make(chan struct{})
		go in.pump()
	}
	if in.maxLatency > 0 {
		in.latencyKick = make(chan struct{}, 1)
		in.latencyStop = make(chan struct{})
		in.latencyDone = make(chan struct{})
		go in.latencyLoop()
	}
	go in.dispatch()
	return in, nil
}

// addMember publishes a membership snapshot extended with id. Caller
// holds in.mu (which serialises all membership swaps).
func (in *Ingestor) addMember(id int, q *officeQueue) {
	old := in.members.Load()
	nm := &membership{
		ids: insertID(append(make([]int, 0, len(old.ids)+1), old.ids...), id),
		q:   make(map[int]*officeQueue, len(old.q)+1),
	}
	for k, v := range old.q {
		nm.q[k] = v
	}
	nm.q[id] = q
	in.members.Store(nm)
}

// dropMember publishes a membership snapshot without id. Caller holds
// in.mu.
func (in *Ingestor) dropMember(id int) {
	old := in.members.Load()
	nm := &membership{
		ids: deleteID(append(make([]int, 0, len(old.ids)), old.ids...), id),
		q:   make(map[int]*officeQueue, len(old.q)),
	}
	for k, v := range old.q {
		if k != id {
			nm.q[k] = v
		}
	}
	in.members.Store(nm)
}

// AddOffice joins a new tenant: it registers the office with the fleet
// (a zero-valued cfg inherits the fleet's default configuration, see
// engine.Fleet.AddOffice) and creates its empty tick queue in one step,
// returning the office's stable ID. The office participates from the
// next dispatch on. Safe to call while ticks are flowing.
func (in *Ingestor) AddOffice(cfg core.Config) (int, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return 0, ErrClosed
	}
	id, err := in.fleet.AddOffice(cfg)
	if err != nil {
		return 0, err
	}
	resolved, _ := in.fleet.Config(id) // a zero cfg resolved to the default
	in.addMember(id, newOfficeQueue(resolved.Streams))
	return id, nil
}

// RemoveOffice retires a tenant: it drains the office's already-queued
// ticks — forcing a dispatch cycle whose merged actions (the office's
// final flush) flow through the OnBatch tap and the sink like any other
// batch — then retires the queue, removes the office from the fleet, and
// folds its counters into Stats' retired totals. Ticks pushed
// concurrently with the removal may be discarded and counted as dropped.
// It returns the office's final System for inspection.
func (in *Ingestor) RemoveOffice(id int) (*core.System, error) {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return nil, ErrClosed
	}
	if in.members.Load().q[id] == nil {
		in.mu.Unlock()
		return nil, fmt.Errorf("%w (office %d)", ErrUnknownOffice, id)
	}
	// Final flush: dispatch everything queued, this office included.
	in.flushSeq++
	ticket := in.flushSeq
	in.work.Signal()
	for in.doneSeq < ticket && !in.closed {
		in.done.Wait()
	}
	if in.closed {
		in.mu.Unlock()
		return nil, ErrClosed
	}
	in.mu.Unlock()

	// Retire the queue outside the control lock (lock order: queue locks
	// are never taken under in.mu). The retired flag is the
	// winner-decides point for concurrent removals of the same ID.
	q := in.members.Load().q[id]
	if q == nil {
		return nil, fmt.Errorf("%w (office %d)", ErrUnknownOffice, id)
	}
	q.mu.Lock()
	if q.retired {
		q.mu.Unlock()
		return nil, fmt.Errorf("%w (office %d)", ErrUnknownOffice, id)
	}
	q.retired = true
	final := OfficeStats{
		Pushed:     q.pushed,
		Dispatched: q.dispatched,
		// Anything still queued arrived during the drain; it is lost.
		Dropped: q.dropped + uint64(len(q.ticks)),
	}
	q.depth.Store(0)
	q.pendN.Store(0)
	q.space.Broadcast()
	q.mu.Unlock()

	in.mu.Lock()
	defer in.mu.Unlock()
	in.retired.Pushed += final.Pushed
	in.retired.Dispatched += final.Dispatched
	in.retired.Dropped += final.Dropped
	in.dropMember(id)
	return in.fleet.RemoveOffice(id)
}

// insertID inserts id into the ascending slice ids.
func insertID(ids []int, id int) []int {
	i := sort.SearchInts(ids, id)
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// deleteID removes id from the ascending slice ids.
func deleteID(ids []int, id int) []int {
	i := sort.SearchInts(ids, id)
	if i < len(ids) && ids[i] == id {
		ids = append(ids[:i], ids[i+1:]...)
	}
	return ids
}

// wakeDispatcher signals the dispatcher's condition under the control
// mutex (a bare Signal could race the dispatcher between its predicate
// check and Wait). Callers may hold an officeQueue lock.
func (in *Ingestor) wakeDispatcher() {
	in.mu.Lock()
	in.work.Signal()
	in.mu.Unlock()
}

// Push queues one RSSI tick (one sample per stream) for an office, named
// by its stable ID. The sample slice is copied, so the caller may reuse
// its buffer. When the office's queue is full the configured Policy
// decides: Block waits for the dispatcher, DropOldest evicts, ErrorOnFull
// returns ErrQueueFull. A Block-policy Push whose office is removed while
// it waits returns ErrUnknownOffice. A tick whose sample count is not the
// office's stream count is rejected with ErrTickWidth before it is
// queued, so it never reaches the fleet. Pushes to different offices take
// only their own office's lock, so producers do not contend with each
// other.
func (in *Ingestor) Push(office int, rssi []float64) error {
	q := in.members.Load().q[office]
	if q == nil {
		if in.closedFlag.Load() {
			return ErrClosed
		}
		return fmt.Errorf("%w (office %d)", ErrUnknownOffice, office)
	}
	if len(rssi) != q.width {
		return fmt.Errorf("%w (office %d: got %d samples, want %d)", ErrTickWidth, office, len(rssi), q.width)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.retired && !in.closedFlag.Load() && len(q.ticks) >= in.queue {
		switch in.onFull {
		case DropOldest:
			q.recycleTick(q.ticks[0], in.queue)
			q.ticks = q.ticks[1:]
			q.base++
			q.dropped++
			q.depth.Add(-1)
		case ErrorOnFull:
			q.dropped++
			return fmt.Errorf("%w (office %d, capacity %d)", ErrQueueFull, office, in.queue)
		default: // Block
			in.needSpace.Add(1)
			in.wakeDispatcher()
			q.space.Wait()
			in.needSpace.Add(-1)
		}
	}
	if in.closedFlag.Load() {
		return ErrClosed
	}
	if q.retired {
		return fmt.Errorf("%w (office %d removed while push blocked)", ErrUnknownOffice, office)
	}
	// Copy the caller's samples into a recycled slice when one fits
	// (stream counts are per-office constants, so after the first
	// dispatch cycle this never allocates).
	var tick []float64
	if n := len(q.free); n > 0 && cap(q.free[n-1]) >= len(rssi) {
		tick = q.free[n-1][:len(rssi)]
		q.free = q.free[:n-1]
	} else {
		tick = make([]float64, len(rssi))
	}
	copy(tick, rssi)
	q.ticks = append(q.ticks, tick)
	q.pushed++
	q.depth.Add(1)
	if in.batchTicks > 0 && !q.thresholdHit && int64(len(q.ticks)) >= in.effBatch.Load() {
		q.thresholdHit = true
		in.wakeDispatcher()
	}
	in.markPending()
	return nil
}

// markPending starts the MaxBatchLatency clock on the first piece of
// work queued since the last dispatch and wakes the latency goroutine to
// re-arm its timer.
func (in *Ingestor) markPending() {
	if in.maxLatency <= 0 {
		return
	}
	if in.pendingNanos.CompareAndSwap(0, time.Now().UnixNano()) {
		select {
		case in.latencyKick <- struct{}{}:
		default:
		}
	}
}

// latencyLoop is the MaxBatchLatency goroutine: it sleeps until the
// oldest queued work crosses the latency bound, then flags the
// dispatcher (latencyDue) exactly like a flush trigger. It holds no
// state of its own beyond the timer; the pendingNanos clock is
// authoritative.
func (in *Ingestor) latencyLoop() {
	defer close(in.latencyDone)
	timer := time.NewTimer(in.maxLatency)
	defer timer.Stop()
	for {
		select {
		case <-in.latencyStop:
			return
		case <-in.latencyKick:
		case <-timer.C:
		}
		if in.closedFlag.Load() {
			return
		}
		wait := in.maxLatency
		if ns := in.pendingNanos.Load(); ns != 0 {
			wait = time.Until(time.Unix(0, ns).Add(in.maxLatency))
			if wait <= 0 {
				in.mu.Lock()
				in.latencyDue = true
				in.work.Signal()
				in.mu.Unlock()
				wait = in.maxLatency
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
	}
}

// PushInput queues a keyboard/mouse notification for one office (by
// stable ID). It is delivered before the office's next pushed tick —
// i.e. after every tick queued so far — matching System.NotifyInput
// between Tick calls.
func (in *Ingestor) PushInput(office, workstation int) error {
	if in.closedFlag.Load() {
		return ErrClosed
	}
	q := in.members.Load().q[office]
	if q == nil {
		return fmt.Errorf("%w (office %d)", ErrUnknownOffice, office)
	}
	q.mu.Lock()
	if in.closedFlag.Load() {
		q.mu.Unlock()
		return ErrClosed
	}
	if q.retired {
		q.mu.Unlock()
		return fmt.Errorf("%w (office %d)", ErrUnknownOffice, office)
	}
	q.pend = append(q.pend, pendingInput{ws: workstation, seq: q.base + uint64(len(q.ticks))})
	q.pendN.Add(1)
	q.mu.Unlock()
	in.markPending()
	return nil
}

// PushOffices feeds one pre-assembled, ID-addressed fleet batch through
// the queues exactly as Fleet.Run would consume it: per office, every
// input event with Tick <= t is delivered before tick t (ties in slice
// order), trailing events after the office's last tick; events whose
// office has no batch entry are delivered after that office's queued
// ticks. The per-office backpressure policy applies to every tick
// pushed. Pushing the same batches and calling Flush at the same
// boundaries as synchronous Run calls yields a byte-identical action
// stream.
func (in *Ingestor) PushOffices(batches []engine.OfficeBatch, evs []engine.InputEvent) error {
	// Validate membership upfront so a bad batch or event office rejects
	// the call before any tick is queued, rather than failing mid-push
	// with half the batch already ingested.
	if in.closedFlag.Load() {
		return ErrClosed
	}
	m := in.members.Load()
	seen := make(map[int]bool, len(batches))
	for _, ob := range batches {
		if m.q[ob.Office] == nil {
			return fmt.Errorf("%w (office %d)", ErrUnknownOffice, ob.Office)
		}
		if seen[ob.Office] {
			return fmt.Errorf("stream: duplicate batch entry for office %d", ob.Office)
		}
		seen[ob.Office] = true
	}
	for _, ev := range evs {
		if m.q[ev.Office] == nil {
			return fmt.Errorf("stream: input event: %w (office %d)", ErrUnknownOffice, ev.Office)
		}
	}

	for _, ob := range batches {
		var evsO []engine.InputEvent
		for _, ev := range evs {
			if ev.Office == ob.Office {
				evsO = append(evsO, ev)
			}
		}
		sort.SliceStable(evsO, func(a, b int) bool { return evsO[a].Tick < evsO[b].Tick })
		next := 0
		for t, n := 0, ob.NumTicks(); t < n; t++ {
			for next < len(evsO) && evsO[next].Tick <= t {
				if err := in.PushInput(ob.Office, evsO[next].Workstation); err != nil {
					return err
				}
				next++
			}
			if err := in.Push(ob.Office, ob.Row(t)); err != nil {
				return err
			}
		}
		for ; next < len(evsO); next++ {
			if err := in.PushInput(ob.Office, evsO[next].Workstation); err != nil {
				return err
			}
		}
	}
	for _, ev := range evs {
		if !seen[ev.Office] {
			if err := in.PushInput(ev.Office, ev.Workstation); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush dispatches everything queued at the time of the call as one
// fleet batch and blocks until that dispatch — including the OnBatch tap
// — has completed and the batch has been handed to the sink pump. It
// returns the first pipeline error (fleet dispatch or sink) seen so far.
func (in *Ingestor) Flush() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return ErrClosed
	}
	in.flushSeq++
	ticket := in.flushSeq
	in.work.Signal()
	for in.doneSeq < ticket && !in.closed {
		in.done.Wait()
	}
	return in.err
}

// FlushEpoch is Flush with a caller-assigned epoch number attached:
// the dispatch cycle serving this request hands its batch to the sink
// pump stamped with the epoch — and hands it over even when the batch
// is empty, so an EpochSink emits exactly one (possibly empty) epoch
// frame per FlushEpoch call. This is the worker side of the cluster
// epoch protocol: the tick producer drives every worker's flushes with
// the same epoch sequence, and the stream router re-merges the
// per-worker frames epoch by epoch (see internal/cluster). Epoch
// flushes must be driven sequentially — one producer, each call after
// the previous returned; a concurrent second call errors rather than
// risk two epochs coalescing into one dispatch.
func (in *Ingestor) FlushEpoch(epoch uint64) error {
	if epoch > wire.MaxTagEpoch {
		return fmt.Errorf("stream: epoch %d exceeds the 32-bit wire field", epoch)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return ErrClosed
	}
	if in.epochSet {
		return errors.New("stream: concurrent epoch flushes (drive epochs from one producer, sequentially)")
	}
	in.epochVal, in.epochSet = epoch, true
	in.flushSeq++
	ticket := in.flushSeq
	in.work.Signal()
	for in.doneSeq < ticket && !in.closed {
		in.done.Wait()
	}
	return in.err
}

// Err returns the first pipeline error (fleet dispatch or sink write)
// recorded so far, without waiting.
func (in *Ingestor) Err() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.err
}

// Close dispatches any remaining queued ticks, stops the dispatcher,
// drains the pump, and flushes and closes the sink. It returns the first
// pipeline error, unblocks any Block-policy pushers with ErrClosed, and
// is idempotent.
func (in *Ingestor) Close() error {
	in.mu.Lock()
	if in.closed {
		err := in.err
		in.mu.Unlock()
		return err
	}
	in.closed = true
	in.closedFlag.Store(true)
	in.flushSeq++ // final drain
	in.work.Broadcast()
	in.done.Broadcast()
	in.mu.Unlock()

	// Unblock Block-policy pushers; they observe closedFlag on wake-up.
	m := in.members.Load()
	for _, q := range m.q {
		q.mu.Lock()
		q.space.Broadcast()
		q.mu.Unlock()
	}

	<-in.dispatcherDone
	if in.latencyStop != nil {
		close(in.latencyStop)
		<-in.latencyDone
	}
	if in.pumpCh != nil {
		close(in.pumpCh)
		<-in.pumpDone
	}
	var sinkErr error
	if in.sink != nil {
		sinkErr = in.sink.Close()
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if sinkErr != nil && in.err == nil {
		in.err = fmt.Errorf("stream: sink close: %w", sinkErr)
	}
	return in.err
}

// OfficeStats are one office's queue counters.
type OfficeStats struct {
	// Office is the office's stable fleet ID (-1 in Stats.Retired).
	Office int
	// Depth is the number of ticks currently queued.
	Depth int
	// Pushed counts ticks accepted into the queue.
	Pushed uint64
	// Dispatched counts ticks delivered to the fleet.
	Dispatched uint64
	// Dropped counts ticks lost to DropOldest eviction or ErrorOnFull
	// rejection.
	Dropped uint64
}

// Stats is a snapshot of the Ingestor's instrumentation.
type Stats struct {
	// Offices holds the member offices' queue counters, ascending by ID.
	Offices []OfficeStats
	// Retired aggregates the counters of offices removed from the fleet,
	// so fleet-wide totals survive churn (Office is -1, Depth 0).
	Retired OfficeStats
	// Batches counts dispatch cycles that delivered at least one tick or
	// input event; Actions counts the merged actions they produced.
	Batches, Actions uint64
	// AutoBatchTicks is the live auto-dispatch threshold: Config.
	// BatchTicks normally, its current adaptive scaling under
	// AdaptiveBatch, 0 when auto-dispatch is off.
	AutoBatchTicks int
	// Dropped is the fleet-wide total of dropped/rejected ticks,
	// including those of retired offices.
	Dropped uint64
}

// Totals folds the member offices' counters and the Retired aggregate
// into one fleet-wide OfficeStats: Office is -1, Depth is the sum of
// the live queue depths, and Pushed/Dispatched/Dropped span the whole
// ingestor lifetime across membership churn. This is the number a
// metrics endpoint exports and the number accounting tests balance
// (Pushed == Dispatched + Dropped + Depth once quiesced).
func (s Stats) Totals() OfficeStats {
	t := s.Retired
	t.Office = -1
	for _, o := range s.Offices {
		t.Depth += o.Depth
		t.Pushed += o.Pushed
		t.Dispatched += o.Dispatched
		t.Dropped += o.Dropped
	}
	return t
}

// Stats returns a snapshot of the per-office queue depth/drop counters
// and the dispatch totals. Counters are read office by office (each
// under its own lock), so a snapshot taken while ticks flow is
// consistent per office rather than across the fleet; a quiesced
// ingestor reads exactly.
func (in *Ingestor) Stats() Stats {
	in.mu.Lock()
	st := Stats{
		Retired:        in.retired,
		Batches:        in.nBatches.Load(),
		Actions:        in.nActions.Load(),
		AutoBatchTicks: int(in.effBatch.Load()),
		Dropped:        in.retired.Dropped,
	}
	in.mu.Unlock()
	st.Retired.Office = -1
	m := in.members.Load()
	st.Offices = make([]OfficeStats, 0, len(m.ids))
	for _, id := range m.ids {
		q := m.q[id]
		q.mu.Lock()
		st.Offices = append(st.Offices, OfficeStats{
			Office:     id,
			Depth:      len(q.ticks),
			Pushed:     q.pushed,
			Dispatched: q.dispatched,
			Dropped:    q.dropped,
		})
		st.Dropped += q.dropped
		q.mu.Unlock()
	}
	return st
}

// dispatch is the dispatcher goroutine: it waits for work (a flush
// request, a Block-policy pusher out of space, a BatchTicks threshold, a
// MaxBatchLatency expiry, or Close), snapshots the queues into one fleet
// batch, runs it, and hands the merged actions to the OnBatch tap and
// the sink pump. Its wake-up predicates read only atomics (queue depths,
// pending-input counts), so it takes no queue locks while holding the
// control mutex.
func (in *Ingestor) dispatch() {
	defer close(in.dispatcherDone)
	for {
		in.mu.Lock()
		for !in.closed && in.flushSeq == in.doneSeq && in.needSpace.Load() == 0 && !in.latencyDue && !in.thresholdDue() {
			in.work.Wait()
		}
		if in.closed && in.flushSeq == in.doneSeq && !in.anyQueued() {
			in.mu.Unlock()
			return
		}
		ticket := in.flushSeq
		epoch, hasEpoch := in.epochVal, in.epochSet
		in.epochSet = false
		in.latencyDue = false
		in.mu.Unlock()

		m := in.members.Load()
		batch, evs, n, maxDepth := in.takeSnapshot(m)

		var acts []engine.OfficeAction
		var err error
		if n > 0 || len(evs) > 0 {
			acts, err = in.fleet.Run(batch, evs)
		}
		if err == nil && len(acts) > 0 && in.onBatch != nil {
			in.onBatch(acts)
		}
		// Epoch-stamped cycles reach the pump even when empty: an
		// EpochSink must emit one frame per epoch so downstream merge
		// watermarks keep advancing through quiet epochs.
		if err == nil && in.pumpCh != nil && (len(acts) > 0 || hasEpoch) {
			in.pumpCh <- pumpItem{acts: acts, epoch: epoch, hasEpoch: hasEpoch}
		}

		in.recycleBatch(m, batch)
		if n > 0 || len(evs) > 0 {
			in.nBatches.Add(1)
			in.nActions.Add(uint64(len(acts)))
		}
		if in.adaptive && n > 0 {
			in.effBatch.Store(int64(nextAutoBatch(int(in.effBatch.Load()), in.batchTicks, in.queue, maxDepth)))
		}

		in.mu.Lock()
		if err != nil && in.err == nil {
			in.err = fmt.Errorf("stream: dispatch: %w", err)
		}
		if ticket > in.doneSeq {
			in.doneSeq = ticket
		}
		in.done.Broadcast()
		in.mu.Unlock()
	}
}

// thresholdDue reports whether auto-dispatch is due: some office has
// reached the live threshold (BatchTicks, or its adaptive scaling).
// Reads only atomics; safe under the control mutex.
func (in *Ingestor) thresholdDue() bool {
	if in.batchTicks <= 0 {
		return false
	}
	eff := in.effBatch.Load()
	for _, q := range in.members.Load().q {
		if q.depth.Load() >= eff {
			return true
		}
	}
	return false
}

// nextAutoBatch scales the auto-dispatch threshold from the queue depth
// observed when a batch was snapshotted: a backlog of at least twice
// the threshold means dispatches are falling behind arrivals (double
// it), a depth at or below half means the stream is sparse (halve it,
// favouring latency), anything between holds. Clamped to [floor, ceil].
func nextAutoBatch(cur, floor, ceil, depth int) int {
	switch {
	case depth >= 2*cur:
		cur *= 2
	case depth <= cur/2:
		cur /= 2
	}
	if cur < floor {
		cur = floor
	}
	if cur > ceil {
		cur = ceil
	}
	return cur
}

// anyQueued reports whether any ticks or input events are pending.
// Reads only atomics; safe under the control mutex.
func (in *Ingestor) anyQueued() bool {
	for _, q := range in.members.Load().q {
		if q.depth.Load() > 0 || q.pendN.Load() > 0 {
			return true
		}
	}
	return false
}

// takeSnapshot empties every office queue and its pending inputs into
// one ID-addressed fleet batch, advancing the queue bases — office by
// office, each under its own lock. Input sequence numbers are translated
// to batch-relative tick indices; events whose tick was dropped clamp to
// the start of the batch (the fleet delivers them before the first
// surviving tick). Emptied queues wake their Block-policy pushers.
// Retired queues are skipped. Only the dispatcher calls this (batchBuf/
// evsBuf are its private scratch).
func (in *Ingestor) takeSnapshot(m *membership) (batch []engine.OfficeBatch, evs []engine.InputEvent, n, maxDepth int) {
	// Restart the latency clock before touching the queues: work pushed
	// while the snapshot sweeps may or may not make this batch, so it
	// must be allowed to re-arm the trigger.
	in.pendingNanos.Store(0)
	evs = in.evsBuf[:0]
	batch = in.batchBuf[:0]
	for _, id := range m.ids {
		q := m.q[id]
		q.mu.Lock()
		if q.retired {
			q.mu.Unlock()
			continue
		}
		q.thresholdHit = false
		if len(q.ticks) > maxDepth {
			maxDepth = len(q.ticks)
		}
		for _, pi := range q.pend {
			tick := 0
			if pi.seq > q.base {
				tick = int(pi.seq - q.base)
			}
			evs = append(evs, engine.InputEvent{Office: id, Workstation: pi.ws, Tick: tick})
		}
		if len(q.pend) > 0 {
			q.pend = q.pend[:0]
			q.pendN.Store(0)
		}
		if len(q.ticks) > 0 {
			batch = append(batch, engine.OfficeBatch{Office: id, Ticks: q.ticks})
			n += len(q.ticks)
			q.base += uint64(len(q.ticks))
			q.dispatched += uint64(len(q.ticks))
			// Hand the snapshot out and refill from the office's spare
			// header array (ping-pong: the dispatcher returns this snapshot
			// as the new spare once the fleet is done with it).
			q.ticks = q.spare[:0]
			q.spare = nil
			q.depth.Store(0)
			q.space.Broadcast()
		}
		q.mu.Unlock()
	}
	in.evsBuf = evs
	in.batchBuf = batch
	return batch, evs, n, maxDepth
}

// recycleBatch returns a dispatched snapshot's buffers to their office
// queues: every sample slice goes back to the office freelist and the
// tick-header array becomes the office's spare. The fleet only reads the
// payload during Run, so by the time the dispatcher is here the buffers
// are free. Offices retired while the batch was in flight are skipped
// (their memory is garbage).
func (in *Ingestor) recycleBatch(m *membership, batch []engine.OfficeBatch) {
	for i := range batch {
		ob := &batch[i]
		q := m.q[ob.Office]
		if q != nil {
			q.mu.Lock()
			if !q.retired {
				for _, tick := range ob.Ticks {
					q.recycleTick(tick, in.queue)
				}
				if q.spare == nil {
					q.spare = ob.Ticks[:0]
				}
			}
			q.mu.Unlock()
		}
		*ob = engine.OfficeBatch{} // don't pin retired offices' buffers
	}
}

// pumpItem is one dispatch cycle's hand-off to the sink pump: the
// merged actions, plus the FlushEpoch number when the cycle served an
// epoch-stamped flush (in which case the item is delivered even with
// an empty batch).
type pumpItem struct {
	acts     []engine.OfficeAction
	epoch    uint64
	hasEpoch bool
}

// pump is the sink delivery goroutine: it forwards dispatched batches to
// the Sink in dispatch order. Epoch-stamped batches go through the
// sink's EpochSink face when it has one (empty batches included);
// sinks without one get plain non-empty Writes, epoch dropped. After
// the first write error it records the error and keeps draining the
// channel (discarding batches), so a broken sink can never deadlock
// the dispatcher or producers.
func (in *Ingestor) pump() {
	defer close(in.pumpDone)
	es, hasEpochSink := in.sink.(EpochSink)
	failed := false
	for item := range in.pumpCh {
		if failed {
			continue
		}
		var err error
		switch {
		case item.hasEpoch && hasEpochSink:
			err = es.WriteEpoch(item.epoch, item.acts)
		case len(item.acts) > 0:
			err = in.sink.Write(item.acts)
		}
		if err != nil {
			failed = true
			in.mu.Lock()
			if in.err == nil {
				in.err = fmt.Errorf("stream: sink: %w", err)
			}
			in.mu.Unlock()
		}
	}
}
