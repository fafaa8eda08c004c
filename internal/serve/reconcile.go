package serve

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"fadewich/internal/core"
	"fadewich/internal/stream"
)

// LiveOffice is one current fleet member as the reconciler tracks it:
// its spec name, its stable fleet ID and the configuration it is
// running under.
type LiveOffice struct {
	Name   string
	ID     int
	Config core.Config
	// GID is the office's cluster-wide global ID from the spec (-1 in a
	// single-process fleet). A gid change alone forces an update: the
	// coordinator assigns a fresh gid whenever an office moves workers,
	// and the replaced instance is what keeps the forwarded ID space
	// consistent with the reference fleet.
	GID int
}

// Diff is the reconcile plan between a desired spec and live
// membership. Apply order is fixed and documented, because office IDs
// are assigned by a monotonic counter and operators (and the e2e
// reference harness) must be able to predict them: first Removes in
// ascending live-ID order, then Updates in spec order (each a
// RemoveOffice of the old instance followed immediately by an
// AddOffice of the new configuration — a config rollout restarts the
// office's System under a fresh ID, back in the training phase), then
// Adds in spec order.
type Diff struct {
	// Adds are desired offices with no live counterpart, in spec order.
	Adds []ResolvedOffice
	// Removes are live offices no longer desired, ascending by ID.
	Removes []LiveOffice
	// Updates are desired offices whose live counterpart runs a
	// different configuration, in spec order; Old names the live
	// instance being replaced.
	Updates []Update
}

// Update pairs a live office with the new configuration that replaces
// it.
type Update struct {
	Old LiveOffice
	New ResolvedOffice
}

// ComputeDiff is the pure reconcile differ: desired spec (resolved, in
// spec order) versus live membership, matched by office name. It
// touches nothing — it only plans.
func ComputeDiff(desired []ResolvedOffice, live []LiveOffice) Diff {
	byName := make(map[string]LiveOffice, len(live))
	for _, l := range live {
		byName[l.Name] = l
	}
	wanted := make(map[string]bool, len(desired))
	var d Diff
	for _, want := range desired {
		wanted[want.Name] = true
		cur, ok := byName[want.Name]
		switch {
		case !ok:
			d.Adds = append(d.Adds, want)
		case cur.Config != want.Config || cur.GID != want.GID:
			d.Updates = append(d.Updates, Update{Old: cur, New: want})
		}
	}
	for _, l := range live {
		if !wanted[l.Name] {
			d.Removes = append(d.Removes, l)
		}
	}
	sort.Slice(d.Removes, func(i, j int) bool { return d.Removes[i].ID < d.Removes[j].ID })
	return d
}

// liveEntry is the reconciler's record of one live office.
type liveEntry struct {
	LiveOffice
	// observedGen is the spec generation this office last matched.
	observedGen uint64
	// transition is the last membership event that produced this
	// instance ("added" or "updated"), and since its wall-clock time.
	transition string
	since      time.Time
}

// Reconciler owns the desired-vs-live loop: it tracks the spec
// generation (bumped whenever the raw spec content changes, valid or
// not), the live offices with their observed generations, and applies
// diffs through the Ingestor so every membership change lands at a
// batch boundary. All methods are safe for concurrent use.
type Reconciler struct {
	mu sync.Mutex
	// tagged is set on a cluster worker (Config.ForwardSource != 0):
	// see resolveSpec.
	tagged  bool
	ing     *stream.Ingestor
	now     func() time.Time
	gen     uint64
	hash    uint64
	live    map[string]*liveEntry
	desired int
	// byLocal maps local fleet ID → gid, append-only: fleet IDs are
	// assigned by a monotonic counter and never reused, so a reader may
	// consult this map for an office that was just removed (the sink
	// pump races reconciles) and still get the right answer. Only
	// populated for offices whose spec carries a gid.
	byLocal map[int]int

	reconciles uint64
	errorCount uint64
	lastErr    error
	lastDur    time.Duration
}

// specHash fingerprints raw spec content; a changed fingerprint is what
// defines "a new spec generation".
func specHash(raw []byte) uint64 {
	h := fnv.New64a()
	h.Write(raw)
	return h.Sum64()
}

// newReconciler tracks an empty fleet; start brings in the first spec.
func newReconciler(ing *stream.Ingestor, tagged bool) *Reconciler {
	return &Reconciler{
		tagged:  tagged,
		ing:     ing,
		now:     time.Now,
		live:    make(map[string]*liveEntry),
		byLocal: make(map[int]int),
	}
}

// start applies the startup spec, already validated by resolveSpec, as
// generation 1. It is the first reconcile: the same apply step as every
// later one, but not counted in Reconciles.
func (r *Reconciler) start(raw []byte, resolved []ResolvedOffice) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gen, r.hash = 1, specHash(raw)
	return r.applyLocked(resolved)
}

// GlobalID resolves a local fleet ID to the cluster-wide gid its office
// was specced with. The mapping is append-only (fleet IDs are never
// reused), so it stays correct even when the lookup races a reconcile
// that has already removed the office.
func (r *Reconciler) GlobalID(local int) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	gid, ok := r.byLocal[local]
	return gid, ok
}

// Live returns the live offices, ascending by ID.
func (r *Reconciler) Live() []LiveOffice {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.liveLocked()
}

func (r *Reconciler) liveLocked() []LiveOffice {
	out := make([]LiveOffice, 0, len(r.live))
	for _, e := range r.live {
		out = append(out, e.LiveOffice)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// IDOf resolves an office name to its current fleet ID.
func (r *Reconciler) IDOf(name string) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.live[name]
	if !ok {
		return 0, false
	}
	return e.ID, true
}

// Reconcile drives one loop iteration from raw spec content: bump the
// generation if the content changed, validate and resolve it
// atomically (an invalid spec leaves live membership untouched and
// counts as a reconcile error against the new generation), diff
// against live membership, and apply the plan through the ingestor in
// the documented order. Unchanged content with a healthy last
// reconcile is a no-op.
func (r *Reconciler) Reconcile(raw []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := specHash(raw); h != r.hash {
		r.hash = h
		r.gen++
	} else if r.lastErr == nil {
		return nil
	}
	resolved, err := resolveSpec(raw, r.tagged)
	if err != nil {
		return r.failLocked(err)
	}
	start := r.now()
	if err := r.applyLocked(resolved); err != nil {
		return r.failLocked(err)
	}
	r.lastDur = r.now().Sub(start)
	r.reconciles++
	r.lastErr = nil
	return nil
}

// applyLocked diffs resolved against live membership and applies the
// plan through the ingestor in the documented order, then marks every
// live office as observing the current generation.
func (r *Reconciler) applyLocked(resolved []ResolvedOffice) error {
	diff := ComputeDiff(resolved, r.liveLocked())
	for _, rm := range diff.Removes {
		if _, err := r.ing.RemoveOffice(rm.ID); err != nil {
			return fmt.Errorf("remove office %q (id %d): %w", rm.Name, rm.ID, err)
		}
		delete(r.live, rm.Name)
	}
	for _, up := range diff.Updates {
		if _, err := r.ing.RemoveOffice(up.Old.ID); err != nil {
			return fmt.Errorf("update office %q: remove id %d: %w", up.Old.Name, up.Old.ID, err)
		}
		delete(r.live, up.Old.Name)
		if err := r.addLocked(up.New, "updated"); err != nil {
			return fmt.Errorf("update office %q: add: %w", up.New.Name, err)
		}
	}
	for _, ad := range diff.Adds {
		if err := r.addLocked(ad, "added"); err != nil {
			return fmt.Errorf("add office %q: %w", ad.Name, err)
		}
	}
	for _, e := range r.live {
		e.observedGen = r.gen
	}
	r.desired = len(resolved)
	return nil
}

// addLocked joins one office through the ingestor and records it live.
func (r *Reconciler) addLocked(ro ResolvedOffice, transition string) error {
	id, err := r.ing.AddOffice(ro.Config)
	if err != nil {
		return err
	}
	r.live[ro.Name] = &liveEntry{
		LiveOffice: LiveOffice{Name: ro.Name, ID: id, Config: ro.Config, GID: ro.GID},
		transition: transition,
		since:      r.now(),
	}
	if ro.GID >= 0 {
		r.byLocal[id] = ro.GID
	}
	return nil
}

// failLocked records a reconcile failure (spec unreadable, invalid, or
// an apply step refused) without rolling the generation back: the live
// offices keep their previous observed generation, which is exactly
// what the generation-lag gauge reports.
func (r *Reconciler) failLocked(err error) error {
	err = fmt.Errorf("serve: reconcile generation %d: %w", r.gen, err)
	r.lastErr = err
	r.errorCount++
	return err
}

// Fail records an out-of-band reconcile failure (the caller could not
// even produce spec content — e.g. the spec file vanished).
func (r *Reconciler) Fail(err error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failLocked(err)
}

// ReconcileStatus is the reconcile loop's own health, as surfaced by
// /v1/offices and /metrics.
type ReconcileStatus struct {
	// SpecGeneration counts observed revisions of the spec content,
	// starting at 1; GenerationLag is how far the oldest live office
	// trails it (non-zero while a revision has not been fully applied —
	// an invalid revision keeps the lag up until it is fixed).
	SpecGeneration uint64
	GenerationLag  uint64
	// DesiredOffices is the office count of the last *valid* spec; with
	// a healthy loop LiveOffices equals it.
	DesiredOffices int
	LiveOffices    int
	// Reconciles counts applied reconciles (no-ops excluded), Errors
	// the failed ones; LastDuration is the wall-clock cost of the last
	// applied diff and LastError the current failure ("" when healthy).
	Reconciles   uint64
	Errors       uint64
	LastDuration time.Duration
	LastError    string
}

// OfficeReport is one live office's reconcile-side status.
type OfficeReport struct {
	Name               string
	ID                 int
	Config             core.Config
	ObservedGeneration uint64
	Transition         string
	Since              time.Time
	// GID is the office's cluster-wide global ID, -1 outside a cluster.
	GID int
}

// Status snapshots the loop health and the per-office reports,
// ascending by ID.
func (r *Reconciler) Status() (ReconcileStatus, []OfficeReport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := ReconcileStatus{
		SpecGeneration: r.gen,
		DesiredOffices: r.desired,
		LiveOffices:    len(r.live),
		Reconciles:     r.reconciles,
		Errors:         r.errorCount,
		LastDuration:   r.lastDur,
	}
	if r.lastErr != nil {
		st.LastError = r.lastErr.Error()
	}
	offices := make([]OfficeReport, 0, len(r.live))
	for _, e := range r.live {
		offices = append(offices, OfficeReport{
			Name:               e.Name,
			ID:                 e.ID,
			Config:             e.Config,
			ObservedGeneration: e.observedGen,
			Transition:         e.transition,
			Since:              e.since,
			GID:                e.GID,
		})
		if lag := r.gen - e.observedGen; lag > st.GenerationLag {
			st.GenerationLag = lag
		}
	}
	sort.Slice(offices, func(i, j int) bool { return offices[i].ID < offices[j].ID })
	return st, offices
}
