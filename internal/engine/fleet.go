// Fleet: an elastic, sharded multi-tenant deployment of core.System
// instances.
//
// The paper evaluates one 6 m × 3 m office; a production deployment
// monitors thousands of heterogeneous tenants that onboard and churn
// while the system runs. Each office is an independent core.System — the
// System itself stays single-goroutine and unaware of the fleet — and the
// Fleet owns all routing: it delivers batched RSSI ticks and input
// notifications to every office, shards the offices across pool workers,
// and merges the per-office action streams into one globally time-ordered
// stream tagged with the office's stable ID.
//
// Membership is elastic: AddOffice and RemoveOffice are safe to call
// while batches are flowing from another goroutine. A batch in flight
// holds the membership lock for its whole duration, so a membership
// change never lands mid-batch — joining offices start clean (training
// phase, zero clock) at the next batch boundary, and a removed office's
// in-flight batch completes before the removal applies.

package engine

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"fadewich/internal/core"
)

// FleetConfig parameterises a Fleet.
type FleetConfig struct {
	// Offices is the number of office Systems the fleet starts with; they
	// receive the stable IDs 0..Offices-1.
	Offices int
	// System is the shared default per-office configuration, used by every
	// initial office without a PerOffice override and by AddOffice calls
	// that pass a zero configuration.
	System core.Config
	// PerOffice optionally overrides the full System configuration for
	// individual initial offices, keyed by office ID in [0, Offices).
	// Heterogeneous tenants differ here: stream count (sensor layout),
	// workstation count, MD thresholds, control timings.
	PerOffice map[int]core.Config
	// Workers caps the worker-pool width (0 selects one per CPU, 1 forces
	// sequential delivery). Output is identical for every value.
	Workers int
}

// OfficeAction is one action emitted by one office of the fleet.
type OfficeAction struct {
	// Office is the stable ID of the emitting System.
	Office int
	// Action is the System output (Action.Time is that office's clock).
	Action core.Action
}

// InputEvent routes a keyboard/mouse notification to one office, named by
// its stable ID. Tick is the index within that office's current batch
// before which the notification is delivered; events at the same tick are
// delivered in slice order.
type InputEvent struct {
	Office      int
	Workstation int
	Tick        int
}

// OfficeBatch is one office's tick payload for a Run call, addressed by
// stable office ID. Each tick is one sample per stream of that office's
// configuration (offices may have different stream counts). The fleet
// only reads the ticks during the Run call; the caller may reuse them
// afterwards.
type OfficeBatch struct {
	Office int
	Ticks  [][]float64
}

// officeState is one tenant: its stable ID, resolved configuration, the
// System (dt caches its effective tick period), and the per-batch
// action buffer reused between batches.
type officeState struct {
	id  int
	cfg core.Config
	sys *core.System
	dt  float64
	buf []OfficeAction
}

// Fleet shards its member office Systems across a worker pool. All
// methods are safe for concurrent use: batch delivery (Run) serialises
// on an internal lock held for the whole batch, so AddOffice/RemoveOffice
// calls from other goroutines always land at a batch boundary.
type Fleet struct {
	pool *Pool
	def  core.Config // shared default office configuration

	mu sync.Mutex
	// active holds the member offices in ascending ID order (IDs are
	// allocated monotonically and never reused, so append keeps order).
	active []*officeState
	byID   map[int]*officeState
	nextID int

	// Batch-delivery scratch, reused across Run calls and guarded by mu.
	// At 1024+ offices the per-call work structs, routing map, shard-run
	// headers and merge temporaries dominated Run's allocation profile
	// despite being dead the moment the call returned; pooling them makes
	// steady-state delivery allocation-free apart from the returned slice.
	workByID  map[int]*work
	workCache []work
	workList  []*work
	shardRuns [][]OfficeAction
	shardSc   []*mergeScratch
	finalSc   mergeScratch
}

// NewFleet builds the fleet with every initial office System in the
// training phase. Offices with a PerOffice entry use that configuration
// verbatim; the rest share cfg.System. Offices may be zero: the fleet
// is elastic, and a member-less fleet (a cluster worker whose shard is
// currently empty) runs fine — Run returns empty batches until
// AddOffice gives it tenants.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Offices < 0 {
		return nil, fmt.Errorf("engine: negative office count %d", cfg.Offices)
	}
	for id := range cfg.PerOffice {
		if id < 0 || id >= cfg.Offices {
			return nil, fmt.Errorf("engine: per-office config for office %d outside initial fleet of %d", id, cfg.Offices)
		}
	}
	f := &Fleet{
		pool: NewPool(cfg.Workers),
		def:  cfg.System,
		byID: make(map[int]*officeState, cfg.Offices),
	}
	for i := 0; i < cfg.Offices; i++ {
		oc := cfg.System
		if c, ok := cfg.PerOffice[i]; ok {
			oc = c
		}
		if _, err := f.addLocked(oc); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// addLocked creates one office System and registers it under the next ID.
func (f *Fleet) addLocked(cfg core.Config) (int, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return 0, fmt.Errorf("engine: office %d: %w", f.nextID, err)
	}
	st := &officeState{id: f.nextID, cfg: cfg, sys: sys, dt: sys.DT()}
	f.nextID++
	f.active = append(f.active, st)
	f.byID[st.id] = st
	return st.id, nil
}

// AddOffice joins a new tenant to the fleet and returns its stable ID.
// The office starts clean — a fresh System in the training phase with a
// zero clock — and participates from the next batch on. A completely
// zero-valued cfg inherits the fleet's shared default configuration;
// a partial cfg is used as given and rejected loudly if invalid (it is
// never silently merged with the default). Safe to call concurrently
// with batch delivery: the join lands at the next batch boundary.
func (f *Fleet) AddOffice(cfg core.Config) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if cfg == (core.Config{}) {
		cfg = f.def
	}
	return f.addLocked(cfg)
}

// RemoveOffice retires a tenant from the fleet and returns its System for
// final inspection (training samples, authentication state). Any batch in
// flight completes first — the removed office's actions from that batch
// still appear in the merged stream — and the ID is never reused. Layers
// that queue ticks (stream.Ingestor) drain the office's queue before
// calling this.
func (f *Fleet) RemoveOffice(id int) (*core.System, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.byID[id]
	if st == nil {
		return nil, fmt.Errorf("engine: office %d is not a member of the fleet", id)
	}
	delete(f.byID, id)
	for i, o := range f.active {
		if o == st {
			f.active = append(f.active[:i], f.active[i+1:]...)
			break
		}
	}
	return st.sys, nil
}

// Offices returns the current fleet size.
func (f *Fleet) Offices() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.active)
}

// IDs returns the stable IDs of the member offices in ascending order.
func (f *Fleet) IDs() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	ids := make([]int, len(f.active))
	for i, st := range f.active {
		ids[i] = st.id
	}
	return ids
}

// System returns office id's System for direct inspection (training
// sample counts, phase, authentication state), or nil for a non-member.
// The System must not be ticked directly while the fleet is also
// delivering batches.
func (f *Fleet) System(id int) *core.System {
	f.mu.Lock()
	defer f.mu.Unlock()
	if st := f.byID[id]; st != nil {
		return st.sys
	}
	return nil
}

// Config returns office id's resolved configuration and whether the
// office is a member.
func (f *Fleet) Config(id int) (core.Config, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if st := f.byID[id]; st != nil {
		return st.cfg, true
	}
	return core.Config{}, false
}

// DefaultConfig returns the fleet's shared default office configuration.
func (f *Fleet) DefaultConfig() core.Config { return f.def }

// work is one office's share of a batch: its ticks plus its input
// events.
type work struct {
	st    *officeState
	ticks [][]float64
	evs   []InputEvent
	seen  bool // an OfficeBatch entry named this office
}

// Run delivers one batch to the named offices and returns the merged
// action stream. Each OfficeBatch addresses a member office by stable ID
// (at most one entry per office); offices without an entry do not advance
// this batch. inputs are routed to their office (by ID) and delivered, in
// slice order, before the tick they name; events whose tick exceeds the
// office's batch length — or whose office has no batch entry — are
// delivered after the office's last tick of the batch.
//
// The merged stream is ordered by action time, ties broken by office ID,
// then by each office's own emission order — a total order that is
// byte-identical for every worker count and independent of the order of
// the batch entries.
//
// The returned slice is freshly allocated on every call and never touched
// by the fleet afterwards: callers (and action sinks) may retain previous
// batches indefinitely. Only the internal per-office buffers are reused
// between batches.
//
// Run holds the membership lock for the whole batch, so concurrent
// AddOffice/RemoveOffice calls take effect at the next batch boundary.
func (f *Fleet) Run(batches []OfficeBatch, inputs []InputEvent) ([]OfficeAction, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	// A batch routes through fleet-owned scratch: the work array is
	// pre-sized to the worst case (one office per entry) so taking
	// pointers into it is safe, the routing map is cleared in place, and
	// event slices keep their capacity from previous batches.
	need := len(batches) + len(inputs)
	if f.workByID == nil {
		f.workByID = make(map[int]*work, need)
	} else {
		clear(f.workByID)
	}
	if cap(f.workCache) < need {
		f.workCache = make([]work, need)
	}
	cache := f.workCache[:cap(f.workCache)]
	nw := 0
	worklist := f.workList[:0]
	lookup := func(id int) (*work, error) {
		if w := f.workByID[id]; w != nil {
			return w, nil
		}
		st := f.byID[id]
		if st == nil {
			return nil, fmt.Errorf("engine: office %d is not a member of the fleet", id)
		}
		w := &cache[nw]
		nw++
		*w = work{st: st, evs: w.evs[:0]}
		f.workByID[id] = w
		worklist = append(worklist, w)
		return w, nil
	}
	for _, ob := range batches {
		w, err := lookup(ob.Office)
		if err != nil {
			return nil, err
		}
		if w.seen {
			return nil, fmt.Errorf("engine: duplicate batch entry for office %d", ob.Office)
		}
		w.seen = true
		w.ticks = ob.Ticks
	}
	for _, ev := range inputs {
		w, err := lookup(ev.Office)
		if err != nil {
			return nil, fmt.Errorf("engine: input event: %w", err)
		}
		w.evs = append(w.evs, ev)
	}
	f.workList = worklist
	if len(worklist) == 0 {
		return nil, nil // empty batch: nothing to deliver or merge
	}
	// Ascending-ID order makes the shard partition — and with it the
	// merge's office-ID tie-break — independent of the caller's entry
	// order.
	slices.SortFunc(worklist, func(a, b *work) int { return a.st.id - b.st.id })

	// Shard-local batching: one pool task runs a contiguous ascending-ID
	// range of offices and merges their action runs locally, so the final
	// merge fans in over at most ~4·workers runs however large the fleet
	// grows.
	size := shardSize(len(worklist), f.pool.Workers())
	numShards := 0
	if len(worklist) > 0 {
		numShards = (len(worklist) + size - 1) / size
	}
	if cap(f.shardRuns) < numShards {
		f.shardRuns = make([][]OfficeAction, numShards)
	}
	runs := f.shardRuns[:numShards]
	for len(f.shardSc) < numShards {
		f.shardSc = append(f.shardSc, new(mergeScratch))
	}
	err := f.pool.Map(numShards, func(si int) error {
		lo := si * size
		hi := lo + size
		if hi > len(worklist) {
			hi = len(worklist)
		}
		shard := worklist[lo:hi]
		for _, w := range shard {
			sys := w.st.sys
			out := w.st.buf[:0]
			// evs is ordered by slice position; deliver all events with
			// Tick <= t before tick t. Sort stably by tick so out-of-order
			// caller input still lands deterministically.
			slices.SortStableFunc(w.evs, func(a, b InputEvent) int { return a.Tick - b.Tick })
			next := 0
			for t, row := range w.ticks {
				for next < len(w.evs) && w.evs[next].Tick <= t {
					sys.NotifyInput(w.evs[next].Workstation)
					next++
				}
				for _, a := range sys.Tick(row) {
					out = append(out, OfficeAction{Office: w.st.id, Action: a})
				}
			}
			for ; next < len(w.evs); next++ {
				sys.NotifyInput(w.evs[next].Workstation)
			}
			w.st.buf = out
		}
		sc := f.shardSc[si]
		officeRuns := sc.officeRuns[:0]
		shardDT := shard[0].st.dt
		for _, w := range shard {
			officeRuns = append(officeRuns, w.st.buf)
			if w.st.dt != shardDT {
				shardDT = 0 // mixed tick periods: no shared grid
			}
		}
		sc.officeRuns = officeRuns
		// A single shard's merge IS the batch result and must be fresh
		// (Run's contract lets callers keep it); intermediate shard runs
		// reuse the scratch output buffer instead.
		runs[si] = sc.merge(officeRuns, shardDT, numShards == 1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Drop tick references now that delivery is done, so the pooled
	// work structs never pin a caller's tick slices past the Run call.
	for i := range cache[:nw] {
		cache[i].ticks = nil
	}
	if numShards == 1 {
		return runs[0], nil // merged fresh by the shard task above
	}
	fleetDT := worklist[0].st.dt
	for _, w := range worklist {
		if w.st.dt != fleetDT {
			fleetDT = 0 // mixed tick periods: no shared grid
		}
	}
	return f.finalSc.merge(runs, fleetDT, true), nil
}

// mergeScratch owns the reusable temporaries of a merge call — the
// counting-sort order/starts arrays, the heap-merge cursor state, the
// shard pass's run headers — plus an optional reusable output buffer.
// The zero value is ready to use. One scratch serves one goroutine at a
// time; the fleet keeps one per shard slot plus one for the final pass.
type mergeScratch struct {
	out        []OfficeAction
	officeRuns [][]OfficeAction // shard pass: per-office run headers
	order      []int64
	starts     []int32
	pos        []int
	heap       []int
}

// outBuf returns an empty output slice with capacity n: a fresh
// allocation when the result escapes to the caller (fresh), the reusable
// scratch buffer otherwise.
func (sc *mergeScratch) outBuf(n int, fresh bool) []OfficeAction {
	if fresh {
		return make([]OfficeAction, 0, n)
	}
	if cap(sc.out) < n {
		sc.out = make([]OfficeAction, 0, n)
	}
	return sc.out[:0]
}

// orderBuf returns an n-element int64 buffer with undefined contents.
func (sc *mergeScratch) orderBuf(n int) []int64 {
	if cap(sc.order) < n {
		sc.order = make([]int64, n)
	}
	return sc.order[:n]
}

// startsBuf returns an n-element zeroed int32 buffer.
func (sc *mergeScratch) startsBuf(n int) []int32 {
	if cap(sc.starts) < n {
		sc.starts = make([]int32, n)
		return sc.starts
	}
	s := sc.starts[:n]
	clear(s)
	return s
}

// posBuf returns an n-element zeroed int buffer.
func (sc *mergeScratch) posBuf(n int) []int {
	if cap(sc.pos) < n {
		sc.pos = make([]int, n)
		return sc.pos
	}
	p := sc.pos[:n]
	clear(p)
	return p
}

// bucket merges by counting sort over the batch's tick span.
// dt is the tick period shared by every participating office; action
// times are float64(tick)·dt exactly (System.Tick stamps them that
// way), so the integer tick is recovered exactly by rounding t/dt and
// verifying the product round-trips — any action that fails the
// round-trip (clock drift, foreign times) aborts the fast path. Ranking
// is then a dense [minTick, maxTick] counting sort: count, prefix-sum,
// scatter each run in input order. Within one tick bucket the scatter
// writes run 0's actions before run 1's and preserves each run's
// internal order, which equals the (time, office, emission) total order
// exactly when the runs' office ranges are ascending and disjoint — the
// shape both merge passes produce (per-office runs in ascending ID
// order; shard runs over ascending ID ranges). It returns nil — fall
// back to the heap merge — when dt is 0 (no shared grid), the
// precondition fails, or the tick span is too sparse for a dense count
// array to pay off (e.g. a fresh joiner's near-zero clock merged with
// multi-day clocks).
func (sc *mergeScratch) bucket(runs [][]OfficeAction, total int, dt float64, fresh bool) []OfficeAction {
	if dt <= 0 || total < 32 {
		return nil
	}
	// Verify ascending, disjoint office ranges and recover every
	// action's tick in one pass.
	order := sc.orderBuf(total)
	minTick, maxTick := int64(1<<62), int64(-1<<62)
	prevMax, n := -1, 0
	for _, r := range runs {
		if len(r) == 0 {
			continue
		}
		lo, hi := r[0].Office, r[0].Office
		for i := range r {
			if o := r[i].Office; o < lo {
				lo = o
			} else if o > hi {
				hi = o
			}
			t := r[i].Action.Time
			k := int64(math.Round(t / dt))
			if float64(k)*dt != t {
				return nil // not on this grid
			}
			if k < minTick {
				minTick = k
			}
			if k > maxTick {
				maxTick = k
			}
			order[n] = k
			n++
		}
		if lo <= prevMax {
			return nil
		}
		prevMax = hi
	}
	span := maxTick - minTick + 1
	if span > 4*int64(total)+64 {
		return nil // sparse: the count array would dwarf the data
	}

	// Counting sort: bucket sizes, prefix sums, scatter.
	starts := sc.startsBuf(int(span) + 1)
	for _, k := range order[:n] {
		starts[k-minTick+1]++
	}
	for i := int64(1); i <= span; i++ {
		starts[i] += starts[i-1]
	}
	out := sc.outBuf(total, fresh)[:total]
	n = 0
	for _, r := range runs {
		for i := range r {
			b := order[n] - minTick
			n++
			out[starts[b]] = r[i]
			starts[b]++
		}
	}
	return out
}

// shardSize returns how many offices one pool task processes per batch —
// the shard-local batching heuristic. Small fleets get one office per
// task (maximum tick-delivery parallelism); once the fleet outgrows
// ~4 tasks per worker, shards grow with the office count instead, so the
// per-batch task count and the final merge fan-in stay bounded at
// ~4·workers however many offices join. Per merged action that costs
// O(log officesPerShard) on the parallel shard pass plus O(log shards)
// on the final pass — flat to falling as offices scale.
func shardSize(offices, workers int) int {
	maxShards := 4 * workers
	if maxShards < 1 {
		maxShards = 1
	}
	size := (offices + maxShards - 1) / maxShards
	if size < 1 {
		size = 1
	}
	return size
}

// mergeRuns k-way-merges action runs into one fresh slice. Every input
// run must already be internally ordered by (time, office ID, emission
// order) — which holds both for a single office's buffer (System clocks
// are non-decreasing and emission order breaks ties) and for the output
// of a previous mergeRuns pass — and the runs' office-ID sets must be
// disjoint. The result is the global total order (time, then office ID,
// then per-office emission order): popping FIFO from each run preserves
// emission order, and the (time, office) comparator settles every
// cross-run tie because equal (time, office) pairs can only sit in the
// same run. It always copies into a fresh slice — office buffers are
// reused by the next batch, and Run promises callers the returned
// stream is theirs to keep.
//
// Two strategies implement the same order. Action times are tick-grid
// values (System.Tick stamps tick·DT), so a fleet batch usually has few
// distinct times shared by many actions; the bucket pass counting-sorts
// over the distinct times at O(1) comparisons per action, independent
// of the merge fan-in. When the precondition it needs is absent —
// ascending run office ranges — or times are mostly unique
// (heterogeneous DT drift), the index-heap merge takes over.
func mergeRuns(runs [][]OfficeAction, dt float64) []OfficeAction {
	var sc mergeScratch
	return sc.merge(runs, dt, true)
}

// MergeRuns is the exported k-way merge over already-ordered action
// runs with pairwise-disjoint office-ID sets, producing one slice in
// the global (time, office ID, emission order) order. It is the same
// merge the fleet applies to its per-shard runs; the cluster stream
// router reuses it as the second level of the two-level shard merge,
// combining per-worker sub-batches of one epoch back into the exact
// batch a single-process fleet would have dispatched. Pass dt 0 when
// the runs mix sampling periods (or the period is unknown): the merge
// then always takes the comparison-based path, which assumes nothing
// about the time grid.
func MergeRuns(runs [][]OfficeAction, dt float64) []OfficeAction {
	return mergeRuns(runs, dt)
}

// merge is mergeRuns with explicit buffer ownership: temporaries always
// come from the scratch, and the result is freshly allocated when fresh
// is set (the caller keeps it) or scratch-backed otherwise (valid until
// the scratch's next merge — the fleet's intermediate shard runs).
func (sc *mergeScratch) merge(runs [][]OfficeAction, dt float64, fresh bool) []OfficeAction {
	total, nonEmpty := 0, 0
	for _, r := range runs {
		total += len(r)
		if len(r) > 0 {
			nonEmpty++
		}
	}
	if total == 0 {
		return nil
	}
	if nonEmpty == 1 {
		out := sc.outBuf(total, fresh)
		for _, r := range runs {
			out = append(out, r...)
		}
		return out
	}
	if merged := sc.bucket(runs, total, dt, fresh); merged != nil {
		return merged
	}

	// Index heap over the non-empty runs, keyed by each run's head.
	out := sc.outBuf(total, fresh)
	pos := sc.posBuf(len(runs))
	less := func(a, b int) bool {
		x, y := &runs[a][pos[a]], &runs[b][pos[b]]
		if x.Action.Time != y.Action.Time {
			return x.Action.Time < y.Action.Time
		}
		return x.Office < y.Office
	}
	heap := sc.heap[:0]
	for ri, r := range runs {
		if len(r) > 0 {
			heap = append(heap, ri)
		}
	}
	sc.heap = heap
	siftDown := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(heap) {
				return
			}
			m := l
			if r := l + 1; r < len(heap) && less(heap[r], heap[l]) {
				m = r
			}
			if !less(heap[m], heap[i]) {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(heap) > 0 {
		ri := heap[0]
		run := runs[ri]
		p := pos[ri]
		// Segment galloping: the winner keeps winning while its next
		// actions stay strictly below the second-best head (strict is
		// exact — a cross-run tie on (time, office) cannot exist, the
		// runs' office sets are disjoint), so the whole stretch is
		// copied in one append instead of one heap cycle per action.
		// Bursty streams (per-office alert cascades) merge at ~one
		// comparison per action this way, independent of fan-in.
		limit := p + 1
		if len(heap) > 1 {
			si := heap[1]
			if len(heap) > 2 && less(heap[2], heap[1]) {
				si = heap[2]
			}
			s := &runs[si][pos[si]]
			for limit < len(run) {
				x := &run[limit]
				if x.Action.Time != s.Action.Time {
					if x.Action.Time > s.Action.Time {
						break
					}
				} else if x.Office > s.Office {
					break
				}
				limit++
			}
		} else {
			limit = len(run)
		}
		out = append(out, run[p:limit]...)
		pos[ri] = limit
		if limit < len(run) {
			siftDown(0)
			continue
		}
		heap[0] = heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		siftDown(0)
	}
	return out
}

// FinishTraining moves every member office to the online phase, fanning
// the SVM training out across the pool. It fails on the first office (in
// ascending-ID order) whose training fails, wrapping the office ID.
func (f *Fleet) FinishTraining() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	active := f.active
	return f.pool.Map(len(active), func(i int) error {
		if err := active[i].sys.FinishTraining(); err != nil {
			return fmt.Errorf("engine: office %d: %w", active[i].id, err)
		}
		return nil
	})
}

// FinishTrainingOffice moves one member office (by stable ID) to the
// online phase. Unlike FinishTraining it is per-office, so a caller
// serving a heterogeneous fleet can train the offices that are ready
// and leave late joiners collecting samples — the serve daemon's
// /v1/train endpoint does exactly that. Non-members are an error.
func (f *Fleet) FinishTrainingOffice(id int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.byID[id]
	if st == nil {
		return fmt.Errorf("engine: office %d is not a fleet member", id)
	}
	if err := st.sys.FinishTraining(); err != nil {
		return fmt.Errorf("engine: office %d: %w", id, err)
	}
	return nil
}

// TrainingSamples returns the total labelled training samples collected
// across the member offices.
func (f *Fleet) TrainingSamples() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	total := 0
	for _, st := range f.active {
		total += st.sys.TrainingSamples()
	}
	return total
}
