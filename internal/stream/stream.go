// Package stream is the asynchronous ingestion-and-delivery layer on top
// of engine.Fleet. The fleet's synchronous API (Run in, merged actions
// out) couples tick arrival to fleet dispatch: every producer must
// assemble a full batch and wait for it to run. Package stream decouples
// the two ends with an Ingestor — bounded per-office tick queues feeding
// a dispatcher goroutine — and streams the merged action output to
// pluggable Sink backends (wire-framed TCP streams, a durable segment
// log, an in-memory ring, fan-out to several at once) on a dedicated
// pump goroutine. The byte formats all live in package
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
//	      │   hold cycle (Advance): keep the actions, emit nothing
//	      │   emitting cycle: MergeRuns(held, own) as one batch
//	      ├──► Config.OnBatch (synchronous tap)
//	      ▼
//	pump goroutine ──► Sink.WriteEncoded (TCPSink / SegmentSink /
//	                                      RingSink / RemapSink /
//	                                      NewEncodeOnceSink fan-out)
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
// snapshot read via one atomic load, and queue depths and the dispatch
// totals are atomics. The Ingestor-level mutex is reduced to the
// dispatcher's control state (flush tickets, close, first error). Lock
// order is officeQueue.mu before Ingestor.mu: a blocked Push signals the
// dispatcher while holding its queue lock, and nothing acquires a queue
// lock while holding the control lock — the dispatcher inspects queue
// state through the atomics and takes queue locks only outside its
// control sections.
//
// Elastic membership: offices are addressed by the fleet's stable IDs.
// AddOffice registers the office with the fleet and creates its queue in
// one step, so the tenant starts clean at the next dispatch. RemoveOffice
// first forces a full flush — the office's already-queued ticks are
// dispatched and their actions emitted through the sink as the office's
// final flush — then retires the queue and removes the office from the
// fleet, folding its counters into the retired totals of Stats.
//
// Dispatch: the dispatcher runs a cycle for exactly five reasons — a
// Flush or FlushEpoch request, an Advance request, a Block-policy pusher
// out of queue space, RemoveOffice's drain, and Close. Nothing else (no
// tick count, no clock) starts one, so where batches fall is decided by
// the producer's flushes, plus the Block backpressure points when a
// queue fills.
//
// Hold and emit: every cycle runs what is queued through Fleet.Run, but
// only an emitting cycle hands actions on. An Advance cycle is a hold
// cycle: it keeps its merged actions, so a producer can bound what the
// queues stage for one large flush. Every other cycle emits the held
// actions and its own as one engine.MergeRuns batch; on an Epochs
// ingestor Flush and a Block-policy dispatch hold too, so their actions
// leave in the next FlushEpoch's tagged batch. Holding never changes the bytes:
// each office's System sees the same call sequence wherever the batches
// split, and the stable (time, office) sort keeps each office's
// emission order across the held and the new run.
//
// Ordering and determinism: an emitting cycle delivers everything run
// since the previous one as one batch, so the sink observes the
// concatenation of batches — each internally ordered by (time, office),
// exactly the total order the synchronous API returns. A single producer
// that pushes the same ticks and calls Flush at the same boundaries as
// its synchronous Run calls therefore obtains a byte-identical stream,
// with or without Advance calls in between (this is tested against a
// 64-office fleet).
package stream

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

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
	// Sink, when non-nil, receives every dispatched batch of the merged
	// action stream on the pump goroutine. The Ingestor owns the sink
	// from this point: Close flushes and closes it.
	Sink Sink
	// OnBatch, when non-nil, is called synchronously on the dispatcher
	// goroutine with every non-empty dispatched batch, before the batch
	// is handed to the pump. It is the in-process tap for callers that
	// need the actions back (Flush returns only after OnBatch does).
	OnBatch func([]engine.OfficeAction)
	// Epochs marks an ingestor whose output is driven by FlushEpoch (a
	// cluster worker behind a tagged sink, which refuses a batch without
	// an epoch): Flush and a Block-policy dispatch hold their actions
	// for the next FlushEpoch instead of emitting them untagged.
	Epochs bool
}

// officeQueue is one office's bounded tick queue plus its counters. Each
// queue has its own lock, so producers feeding different offices never
// contend; depth and pendN mirror the queued tick count and len(pend) as
// atomics so the dispatcher can scan the fleet without taking any queue
// lock.
//
// Queued ticks live back to back in one flat arena, width samples each,
// so a queued tick costs its samples and nothing else. An office holds
// at most two arenas: the active one Push appends to, and either the one
// lent to the running fleet batch or, once that batch is back, a spare
// (only when pushes arrived while the batch ran). Push grows an arena to
// at most twice its live ticks plus one, so every arena holds fewer than
// 2 × Queue × width samples; reclaim lets an idle arena or the row-header
// array go once its capacity exceeds 4× what the last batch used, so
// capacity follows current traffic rather than the largest burst seen.
type officeQueue struct {
	// width is the office's configured stream count, the sample count
	// every pushed tick must have. Immutable after creation.
	width int
	mu    sync.Mutex
	space sync.Cond // Block-policy pushers wait for queue space
	// samples is the active arena. Its first head ticks were evicted by
	// DropOldest; the rest are queued, oldest first.
	samples []float64
	head    int
	// base is the number of ticks ever removed from the front of the
	// queue (dispatched or dropped); base+queued() is the sequence
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
	// depth and pendN mirror queued() and len(pend) for the dispatcher's
	// lock-free drain scan.
	depth atomic.Int64
	pendN atomic.Int64
	// lent is the arena handed to the running fleet batch, rows the
	// batch's row headers (subslices of lent), spare an idle arena for
	// the next snapshot. Only the dispatcher changes lent and rows.
	lent  []float64
	rows  [][]float64
	spare []float64
}

// newOfficeQueue returns an empty queue for an office with width
// streams, its condition wired up.
func newOfficeQueue(width int) *officeQueue {
	q := &officeQueue{width: width}
	q.space.L = &q.mu
	return q
}

// queued returns the number of ticks in the queue. Caller holds q.mu.
func (q *officeQueue) queued() int { return len(q.samples)/q.width - q.head }

// appendTick copies one tick into the active arena. When the arena is
// full it first reclaims evicted ticks in place if they fill at least
// half of it, and otherwise moves the queued ticks into a new arena of
// twice their size plus one tick. Caller holds q.mu.
func (q *officeQueue) appendTick(rssi []float64) {
	w := q.width
	if len(q.samples)+w > cap(q.samples) {
		live := q.samples[q.head*w:]
		if 2*q.head*w >= len(q.samples) {
			q.samples = q.samples[:copy(q.samples, live)]
		} else {
			grown := make([]float64, len(live), 2*len(live)+w)
			copy(grown, live)
			q.samples = grown
		}
		q.head = 0
	}
	q.samples = append(q.samples, rssi...)
}

// reclaim takes back the arena and row headers lent to a fleet batch of
// n ticks once the fleet is done with them. An arena or header array
// more than 4× larger than the batch needed goes to the GC. When pushes
// arrived while the batch ran, the returned arena becomes the spare;
// otherwise the office keeps the larger of its two arenas and no spare.
// Caller holds q.mu.
func (q *officeQueue) reclaim(n int) {
	limit := 4 * n * q.width
	arena := q.lent
	q.lent = nil
	if cap(arena) > limit {
		arena = nil
	}
	clear(q.rows[:n]) // don't pin a dropped arena through stale headers
	if cap(q.rows) > 4*n {
		q.rows = nil
	}
	if len(q.samples) > 0 {
		q.spare = arena
		return
	}
	if cap(q.samples) > limit || cap(arena) > cap(q.samples) {
		q.samples = arena[:0]
	}
}

// bufferBytes is the capacity in bytes of the office's arenas and row
// headers. Caller holds q.mu.
func (q *officeQueue) bufferBytes() uint64 {
	samples := cap(q.samples) + cap(q.spare) + cap(q.lent)
	return uint64(samples)*uint64(unsafe.Sizeof(float64(0))) +
		uint64(cap(q.rows))*uint64(unsafe.Sizeof([]float64(nil)))
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
	fleet   *engine.Fleet
	queue   int
	onFull  Policy
	sink    Sink
	onBatch func([]engine.OfficeAction)
	epochs  bool

	// members is the copy-on-write membership snapshot; see membership.
	members atomic.Pointer[membership]
	// closedFlag mirrors closed for lock-free Push/PushInput checks.
	closedFlag atomic.Bool
	// needSpace counts Block-policy pushers waiting for a dispatch.
	needSpace atomic.Int64
	// nBatches/nActions are the dispatch totals.
	nBatches atomic.Uint64
	nActions atomic.Uint64

	// mu is the control mutex: dispatcher wake-up and completion state
	// only. Never acquire an officeQueue.mu while holding it (Push takes
	// them in the opposite order).
	mu   sync.Mutex
	work sync.Cond // dispatcher waits for work
	done sync.Cond // Flush waiters wait for their dispatch cycle
	// retired accumulates the counters of offices removed from the
	// fleet, so fleet-wide Stats totals survive churn.
	retired OfficeStats
	// flushSeq counts dispatch requests; doneSeq is the highest request
	// fully served (dispatch ran over a queue snapshot taken at or after
	// the request); emitSeq is the highest request that must emit (all
	// but Advance's). Close issues a final flush request of its own.
	flushSeq, doneSeq, emitSeq uint64
	closed                     bool
	err                        error
	// epochVal/epochSet carry a FlushEpoch caller's epoch number to the
	// dispatch cycle that serves its ticket; the cycle consumes them
	// under the lock and stamps its pump hand-off with the epoch.
	epochVal uint64
	epochSet bool

	// batchBuf/evsBuf are the dispatcher's reusable snapshot buffers;
	// only the dispatcher goroutine touches them.
	batchBuf []engine.OfficeBatch
	evsBuf   []engine.InputEvent
	// held is what hold cycles ran since the last emitting cycle, their
	// actions in run order; heldRan is set when they ran any tick or
	// input, so the emitting cycle counts as a batch. Dispatcher-only.
	held    []engine.OfficeAction
	heldRan bool

	pumpCh         chan pumpItem
	pumpDone       chan struct{}
	dispatcherDone chan struct{}
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
	in := &Ingestor{
		fleet:          fleet,
		queue:          queue,
		onFull:         cfg.OnFull,
		sink:           cfg.Sink,
		onBatch:        cfg.OnBatch,
		epochs:         cfg.Epochs,
		dispatcherDone: make(chan struct{}),
	}
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
	in.requestLocked(true)
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
		Dropped: q.dropped + uint64(q.queued()),
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
	for !q.retired && !in.closedFlag.Load() && q.queued() >= in.queue {
		switch in.onFull {
		case DropOldest:
			q.head++
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
	q.appendTick(rssi)
	q.pushed++
	q.depth.Add(1)
	return nil
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
	q.pend = append(q.pend, pendingInput{ws: workstation, seq: q.base + uint64(q.queued())})
	q.pendN.Add(1)
	q.mu.Unlock()
	return nil
}

// Flush dispatches everything queued at the time of the call as one
// fleet batch, emits its actions and those Advance held as one batch,
// and blocks until that dispatch — including the OnBatch tap — has
// completed and the batch has been handed to the sink pump. On an
// Epochs ingestor it holds the actions like Advance, for the next
// FlushEpoch. It returns the first pipeline error (fleet dispatch or
// sink) seen so far.
func (in *Ingestor) Flush() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return ErrClosed
	}
	in.requestLocked(!in.epochs)
	return in.err
}

// Advance runs everything queued at the time of the call through the
// fleet and holds the merged actions instead of emitting them: the next
// emitting cycle (Flush, FlushEpoch, a Block-policy dispatch,
// RemoveOffice's drain or Close) delivers them and its own as one
// batch, byte-identical to one dispatch of everything. It blocks until
// the run has completed, so the queues' arenas are back for reuse, and
// returns the first pipeline error seen so far. A producer staging one
// large flush calls it to bound what the queues hold; Stats' Batches
// and the OnBatch tap count only emitted batches.
func (in *Ingestor) Advance() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return ErrClosed
	}
	in.requestLocked(false)
	return in.err
}

// requestLocked files a dispatch request, one that must emit unless
// emit is false, and waits until a cycle has served it or the ingestor
// closed. Caller holds in.mu; Wait releases it meanwhile.
func (in *Ingestor) requestLocked(emit bool) {
	in.flushSeq++
	ticket := in.flushSeq
	if emit {
		in.emitSeq = ticket
	}
	in.work.Signal()
	for in.doneSeq < ticket && !in.closed {
		in.done.Wait()
	}
}

// FlushEpoch is Flush with a caller-assigned epoch number attached:
// the dispatch cycle serving this request hands its batch to the sink
// pump stamped with the epoch (EncodedBatch.Epoch reports it) — and
// hands it over even when the batch is empty, so a tagged sink emits
// exactly one (possibly empty) epoch frame per FlushEpoch call. This
// is the worker side of the cluster epoch protocol: the tick producer
// drives every worker's flushes with the same epoch sequence, and the
// stream router re-merges the per-worker frames epoch by epoch (see
// internal/cluster). Epoch flushes must be driven sequentially — one
// producer, each call after the previous returned; a concurrent second
// call errors rather than risk two epochs coalescing into one
// dispatch.
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
	in.requestLocked(true)
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
	in.emitSeq = in.flushSeq
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
	// Batches counts emitted batches: emitting cycles that, together
	// with the hold cycles since the previous one, delivered at least
	// one tick or input event. Actions counts the merged actions they
	// emitted.
	Batches, Actions uint64
	// Dropped is the fleet-wide total of dropped/rejected ticks,
	// including those of retired offices.
	Dropped uint64
	// BufferBytes is the capacity in bytes of the member offices' tick
	// arenas and row-header arrays: the memory the queues hold, queued
	// or idle.
	BufferBytes uint64
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
		Retired: in.retired,
		Batches: in.nBatches.Load(),
		Actions: in.nActions.Load(),
		Dropped: in.retired.Dropped,
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
			Depth:      q.queued(),
			Pushed:     q.pushed,
			Dispatched: q.dispatched,
			Dropped:    q.dropped,
		})
		st.Dropped += q.dropped
		st.BufferBytes += q.bufferBytes()
		q.mu.Unlock()
	}
	return st
}

// dispatch is the dispatcher goroutine: it waits for work (a dispatch
// request — Flush, FlushEpoch, Advance or RemoveOffice's drain — a
// Block-policy pusher out of space, or Close), snapshots the queues into
// one fleet batch and runs it. A hold cycle keeps the merged actions; an
// emitting cycle merges them with what earlier hold cycles kept and
// hands the batch to the OnBatch tap and the sink pump. Its drain check
// reads only atomics (queue depths, pending-input counts), so it takes
// no queue locks while holding the control mutex.
func (in *Ingestor) dispatch() {
	defer close(in.dispatcherDone)
	for {
		in.mu.Lock()
		for !in.closed && in.flushSeq == in.doneSeq && in.needSpace.Load() == 0 {
			in.work.Wait()
		}
		if in.closed && in.flushSeq == in.doneSeq && !in.anyQueued() {
			in.mu.Unlock()
			return
		}
		ticket := in.flushSeq
		// Only an emitting cycle consumes a FlushEpoch's epoch.
		emit := in.closed || in.emitSeq > in.doneSeq || (in.needSpace.Load() > 0 && !in.epochs)
		var epoch uint64
		hasEpoch := false
		if emit {
			epoch, hasEpoch = in.epochVal, in.epochSet
			in.epochSet = false
		}
		in.mu.Unlock()

		m := in.members.Load()
		batch, evs, n := in.takeSnapshot(m)
		ran := n > 0 || len(evs) > 0

		var acts []engine.OfficeAction
		var err error
		if ran {
			acts, err = in.fleet.Run(batch, evs)
		}
		in.recycleBatch(m, batch)
		if err == nil {
			if !emit {
				in.held = append(in.held, acts...)
				in.heldRan = in.heldRan || ran
			} else {
				if len(in.held) > 0 {
					acts = engine.MergeRuns([][]engine.OfficeAction{in.held, acts}, 0)
				}
				in.emit(acts, epoch, hasEpoch, ran || in.heldRan)
				in.held, in.heldRan = nil, false
			}
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

// emit delivers an emitting cycle's batch: the OnBatch tap, then the
// sink pump, then the dispatch totals, counting a batch when ran says
// the cycle or a hold cycle before it ran any tick or input.
func (in *Ingestor) emit(acts []engine.OfficeAction, epoch uint64, hasEpoch, ran bool) {
	if len(acts) > 0 && in.onBatch != nil {
		in.onBatch(acts)
	}
	// Epoch-stamped cycles reach the pump even when empty: a tagged
	// sink must emit one frame per epoch so downstream merge
	// watermarks keep advancing through quiet epochs.
	if in.pumpCh != nil && (len(acts) > 0 || hasEpoch) {
		in.pumpCh <- pumpItem{acts: acts, epoch: epoch, hasEpoch: hasEpoch}
	}
	if ran {
		in.nBatches.Add(1)
		in.nActions.Add(uint64(len(acts)))
	}
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
func (in *Ingestor) takeSnapshot(m *membership) (batch []engine.OfficeBatch, evs []engine.InputEvent, n int) {
	evs = in.evsBuf[:0]
	batch = in.batchBuf[:0]
	for _, id := range m.ids {
		q := m.q[id]
		q.mu.Lock()
		if q.retired {
			q.mu.Unlock()
			continue
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
		if k := q.queued(); k > 0 {
			// Lend the arena to the batch, one row header per tick, and
			// let pushes continue into the spare (or a new arena).
			w := q.width
			live := q.samples[q.head*w:]
			rows := q.rows[:0]
			for i := 0; i < k; i++ {
				rows = append(rows, live[i*w:(i+1)*w:(i+1)*w])
			}
			batch = append(batch, engine.OfficeBatch{Office: id, Ticks: rows})
			n += k
			q.base += uint64(k)
			q.dispatched += uint64(k)
			q.rows, q.lent = rows, q.samples
			q.samples, q.head, q.spare = q.spare[:0], 0, nil
			q.depth.Store(0)
			q.space.Broadcast()
		}
		q.mu.Unlock()
	}
	in.evsBuf = evs
	in.batchBuf = batch
	return batch, evs, n
}

// recycleBatch returns a dispatched snapshot's arenas and row headers to
// their office queues (see officeQueue.reclaim). The fleet only reads the
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
				q.reclaim(len(ob.Ticks))
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

// pump is the sink delivery goroutine: it forwards dispatch cycles to
// the Sink in dispatch order, each as one reused EncodedBatch carrying
// the batch and, for an epoch-stamped cycle, the epoch; the sink
// decides from the batch alone what to write. After the first write
// error it records the error and keeps draining the channel
// (discarding batches), so a broken sink can never deadlock the
// dispatcher or producers.
func (in *Ingestor) pump() {
	defer close(in.pumpDone)
	var eb EncodedBatch
	failed := false
	for item := range in.pumpCh {
		if failed {
			continue
		}
		eb.reset(item.acts, item.epoch, item.hasEpoch)
		if err := in.sink.WriteEncoded(&eb); err != nil {
			failed = true
			in.mu.Lock()
			if in.err == nil {
				in.err = fmt.Errorf("stream: sink: %w", err)
			}
			in.mu.Unlock()
		}
	}
}
