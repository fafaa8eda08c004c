// Fleet: an elastic multi-tenant deployment of core.System instances.
//
// The paper evaluates one 6 m × 3 m office; a deployment monitors many
// heterogeneous tenants that onboard and churn while the system runs.
// Each office is an independent core.System — the System itself stays
// single-goroutine and unaware of the fleet — and the Fleet owns all
// routing: it delivers batched RSSI ticks and input notifications to
// every office, one pool task per office, and merges the per-office
// action streams into one globally time-ordered stream tagged with the
// office's stable ID (MergeRuns: concatenate, then sort stably).
//
// Membership is elastic: AddOffice and RemoveOffice are safe to call
// while batches are flowing from another goroutine. A batch in flight
// holds the membership lock for its whole duration, so a membership
// change never lands mid-batch — joining offices start clean (training
// phase, zero clock) at the next batch boundary, and a removed office's
// in-flight batch completes before the removal applies.

package engine

import (
	"cmp"
	"fmt"
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
// System, and the per-batch action buffer reused between batches.
type officeState struct {
	id  int
	cfg core.Config
	sys *core.System
	buf []OfficeAction
}

// Fleet runs its member office Systems on a worker pool, one task per
// office per batch. All methods are safe for concurrent use: batch
// delivery (Run) serialises on an internal lock held for the whole
// batch, so AddOffice/RemoveOffice calls from other goroutines always
// land at a batch boundary.
type Fleet struct {
	pool *Pool
	def  core.Config // shared default office configuration

	mu sync.Mutex
	// active holds the member offices in ascending ID order (IDs are
	// allocated monotonically and never reused, so append keeps order).
	active []*officeState
	byID   map[int]*officeState
	nextID int

	// Batch-delivery scratch, reused across Run calls and guarded by mu:
	// the work structs, the routing map and the run headers MergeRuns
	// reads are dead the moment Run returns, so pooling them leaves the
	// merged slice as routing's only allocation per batch.
	workByID  map[int]*work
	workCache []work
	workList  []*work
	runs      [][]OfficeAction
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
	st := &officeState{id: f.nextID, cfg: cfg, sys: sys}
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

	// One pool task per office: Map hands out indices from an atomic
	// counter, so a worker that finishes a quiet office takes the next.
	err := f.pool.Map(len(worklist), func(i int) error {
		w := worklist[i]
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
	runs := f.runs[:0]
	for _, w := range worklist {
		runs = append(runs, w.st.buf)
	}
	f.runs = runs
	return MergeRuns(runs, 0), nil
}

// MergeRuns merges action runs into one fresh slice in the global
// order: action time, then office ID, then each office's emission
// order. Each office's actions must sit in one run, in emission order,
// which holds for the fleet's per-office buffers and for the cluster
// router's per-worker sub-batches of one epoch. The merge is the
// reference design: concatenate, then sort stably by (time, office).
// Equal (time, office) pairs can only come from one run, where they
// already sit in emission order, and the stable sort keeps them so;
// the result is therefore the same for every order of the runs. A batch carries
// about a dozen actions (FADEWICH acts only around departures), so the
// sort costs next to nothing beside the ticks that produced them.
//
// The result is never a run's backing array: the fleet reuses its
// office buffers for the next batch, and Run's callers keep what it
// returns. It is nil when the runs hold no action. dt is ignored; it
// stays in the signature for existing callers.
func MergeRuns(runs [][]OfficeAction, dt float64) []OfficeAction {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	if total == 0 {
		return nil
	}
	out := make([]OfficeAction, 0, total)
	for _, r := range runs {
		out = append(out, r...)
	}
	slices.SortStableFunc(out, func(a, b OfficeAction) int {
		if c := cmp.Compare(a.Action.Time, b.Action.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.Office, b.Office)
	})
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
