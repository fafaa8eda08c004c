package serve

import (
	"reflect"
	"strings"
	"testing"

	"fadewich/internal/core"
)

// rc is a shorthand resolved config for differ tables: distinguishable
// by Streams without building full systems.
func rc(streams int) core.Config {
	return core.Config{DT: 0.2, Streams: streams, Workstations: 2}
}

func names(d Diff) (adds, removes, updates []string) {
	for _, a := range d.Adds {
		adds = append(adds, a.Name)
	}
	for _, r := range d.Removes {
		removes = append(removes, r.Name)
	}
	for _, u := range d.Updates {
		updates = append(updates, u.New.Name)
	}
	return
}

func TestComputeDiff(t *testing.T) {
	cases := []struct {
		name    string
		desired []ResolvedOffice
		live    []LiveOffice
		adds    []string
		removes []string
		updates []string
	}{
		{
			name:    "no-op",
			desired: []ResolvedOffice{{Name: "a", Config: rc(6)}, {Name: "b", Config: rc(12)}},
			live:    []LiveOffice{{Name: "a", ID: 0, Config: rc(6)}, {Name: "b", ID: 1, Config: rc(12)}},
		},
		{
			name:    "add",
			desired: []ResolvedOffice{{Name: "a", Config: rc(6)}, {Name: "b", Config: rc(6)}, {Name: "c", Config: rc(6)}},
			live:    []LiveOffice{{Name: "a", ID: 0, Config: rc(6)}},
			adds:    []string{"b", "c"},
		},
		{
			name:    "remove",
			desired: []ResolvedOffice{{Name: "b", Config: rc(6)}},
			live:    []LiveOffice{{Name: "a", ID: 0, Config: rc(6)}, {Name: "b", ID: 1, Config: rc(6)}, {Name: "c", ID: 2, Config: rc(6)}},
			removes: []string{"a", "c"},
		},
		{
			name:    "config change",
			desired: []ResolvedOffice{{Name: "a", Config: rc(20)}},
			live:    []LiveOffice{{Name: "a", ID: 0, Config: rc(6)}},
			updates: []string{"a"},
		},
		{
			name: "mixed churn",
			desired: []ResolvedOffice{
				{Name: "keep", Config: rc(6)},
				{Name: "retune", Config: rc(20)},
				{Name: "new", Config: rc(6)},
			},
			live: []LiveOffice{
				{Name: "gone", ID: 0, Config: rc(6)},
				{Name: "keep", ID: 1, Config: rc(6)},
				{Name: "retune", ID: 2, Config: rc(6)},
			},
			adds:    []string{"new"},
			removes: []string{"gone"},
			updates: []string{"retune"},
		},
		{
			name:    "reorder alone changes nothing",
			desired: []ResolvedOffice{{Name: "b", Config: rc(12)}, {Name: "a", Config: rc(6)}},
			live:    []LiveOffice{{Name: "a", ID: 0, Config: rc(6)}, {Name: "b", ID: 1, Config: rc(12)}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := ComputeDiff(tc.desired, tc.live)
			adds, removes, updates := names(d)
			if !reflect.DeepEqual(adds, tc.adds) {
				t.Errorf("adds = %v, want %v", adds, tc.adds)
			}
			if !reflect.DeepEqual(removes, tc.removes) {
				t.Errorf("removes = %v, want %v", removes, tc.removes)
			}
			if !reflect.DeepEqual(updates, tc.updates) {
				t.Errorf("updates = %v, want %v", updates, tc.updates)
			}
		})
	}
}

func TestComputeDiffOrdering(t *testing.T) {
	// Removes come back ascending by live ID regardless of input order;
	// adds and updates keep spec order. This is the documented apply
	// order that makes ID assignment predictable.
	desired := []ResolvedOffice{
		{Name: "z-add", Config: rc(6)},
		{Name: "up2", Config: rc(20)},
		{Name: "a-add", Config: rc(6)},
		{Name: "up1", Config: rc(20)},
	}
	live := []LiveOffice{
		{Name: "rm-high", ID: 7, Config: rc(6)},
		{Name: "up1", ID: 5, Config: rc(6)},
		{Name: "rm-low", ID: 2, Config: rc(6)},
		{Name: "up2", ID: 3, Config: rc(6)},
	}
	d := ComputeDiff(desired, live)
	adds, removes, updates := names(d)
	if want := []string{"rm-low", "rm-high"}; !reflect.DeepEqual(removes, want) {
		t.Errorf("removes = %v, want ascending-ID %v", removes, want)
	}
	if want := []string{"z-add", "a-add"}; !reflect.DeepEqual(adds, want) {
		t.Errorf("adds = %v, want spec-order %v", adds, want)
	}
	if want := []string{"up2", "up1"}; !reflect.DeepEqual(updates, want) {
		t.Errorf("updates = %v, want spec-order %v", updates, want)
	}
}

// TestReconcilerApply drives the reconciler against a real
// fleet+ingestor and checks the deterministic ID assignment contract:
// startup, the first reconcile, assigns IDs 0..n−1 in spec order at
// generation 1 without counting a reconcile; removes free nothing,
// updates and adds take fresh monotonic IDs in the documented order.
func TestReconcilerApply(t *testing.T) {
	srv, _ := newTestServer(t, specJSON("a", "b", "c"))
	rec := srv.rec

	st, reports := rec.Status()
	if st.SpecGeneration != 1 || st.LiveOffices != 3 || st.DesiredOffices != 3 || st.GenerationLag != 0 ||
		st.Reconciles != 0 || st.Errors != 0 || st.LastError != "" || st.LastDuration != 0 {
		t.Fatalf("startup status wrong: %+v", st)
	}
	for i, name := range []string{"a", "b", "c"} {
		if rep := reports[i]; rep.Name != name || rep.ID != i || rep.Transition != "added" || rep.ObservedGeneration != 1 {
			t.Fatalf("office %d after startup: %+v, want %q under id %d, added at generation 1", i, rep, name, i)
		}
	}

	// Remove b, retune a (fresh ID), add d: predicted IDs are a→3
	// (update applies before add) and d→4; c keeps 2.
	raw := []byte(`{
		"defaults": {"layout": "small", "sensors": 2},
		"offices": [
			{"name": "a", "md_tau": 4.5},
			{"name": "c"},
			{"name": "d"}
		]
	}`)
	if err := rec.Reconcile(raw); err != nil {
		t.Fatal(err)
	}
	st, reports = rec.Status()
	if st.SpecGeneration != 2 || st.GenerationLag != 0 || st.Reconciles != 1 || st.Errors != 0 {
		t.Fatalf("post-rollout status wrong: %+v", st)
	}
	want := map[string]int{"c": 2, "a": 3, "d": 4}
	if len(reports) != len(want) {
		t.Fatalf("live offices: %v", reports)
	}
	for _, rep := range reports {
		if want[rep.Name] != rep.ID {
			t.Errorf("office %q at id %d, want %d", rep.Name, rep.ID, want[rep.Name])
		}
		if rep.ObservedGeneration != 2 {
			t.Errorf("office %q observed gen %d, want 2", rep.Name, rep.ObservedGeneration)
		}
	}
	byName := make(map[string]OfficeReport)
	for _, rep := range reports {
		byName[rep.Name] = rep
	}
	if tr := byName["a"].Transition; tr != "updated" {
		t.Errorf("a transition %q, want updated", tr)
	}
	if tr := byName["d"].Transition; tr != "added" {
		t.Errorf("d transition %q, want added", tr)
	}
	if tr := byName["c"].Transition; tr != "added" {
		t.Errorf("c transition %q, want its original added", tr)
	}
	if byName["a"].Config.MD.Tau != 4.5 {
		t.Errorf("a rolled out without its new tau: %+v", byName["a"].Config)
	}
	// The updated office restarted in training.
	if ph := srv.fleet.System(byName["a"].ID).Phase(); ph != core.PhaseTraining {
		t.Errorf("updated office phase %v, want training", ph)
	}
}

// TestReconcilerInvalidSpecAtomic pins the atomicity contract: an
// invalid revision bumps the generation and the error counters but
// leaves membership untouched, and the lag stays up until a valid
// revision lands.
func TestReconcilerInvalidSpecAtomic(t *testing.T) {
	srv, _ := newTestServer(t, specJSON("a", "b"))
	rec := srv.rec
	before := rec.Live()

	err := rec.Reconcile([]byte(`{"offices": [{"name": "a"}, {"name": "a"}]}`))
	if err == nil {
		t.Fatal("duplicate-name spec applied")
	}
	if !strings.Contains(err.Error(), "generation 2") {
		t.Fatalf("error %q does not name the failing generation", err)
	}
	st, _ := rec.Status()
	if st.SpecGeneration != 2 || st.GenerationLag != 1 || st.Errors != 1 || st.Reconciles != 0 {
		t.Fatalf("failed-revision status wrong: %+v", st)
	}
	if st.LastError == "" {
		t.Fatal("LastError empty after a failed reconcile")
	}
	if got := rec.Live(); !reflect.DeepEqual(got, before) {
		t.Fatalf("membership changed under an invalid spec: %v -> %v", before, got)
	}
	// DesiredOffices still reflects the last valid spec.
	if st.DesiredOffices != 2 {
		t.Fatalf("desired = %d, want 2 from the last valid spec", st.DesiredOffices)
	}

	// Unparseable JSON takes the same path.
	if err := rec.Reconcile([]byte(`{broken`)); err == nil {
		t.Fatal("broken JSON applied")
	}
	st, _ = rec.Status()
	if st.SpecGeneration != 3 || st.GenerationLag != 2 || st.Errors != 2 {
		t.Fatalf("second failed revision status wrong: %+v", st)
	}

	// A valid revision converges and clears the lag and the error.
	if err := rec.Reconcile([]byte(specJSON("a", "b"))); err != nil {
		t.Fatal(err)
	}
	st, _ = rec.Status()
	if st.SpecGeneration != 4 || st.GenerationLag != 0 || st.LastError != "" {
		t.Fatalf("recovery status wrong: %+v", st)
	}
}

// TestReconcilerNoOp pins that unchanged content with a healthy loop
// does not count as a reconcile, while re-presenting the same content
// after a failure retries it.
func TestReconcilerNoOp(t *testing.T) {
	srv, _ := newTestServer(t, specJSON("a"))
	rec := srv.rec

	if err := rec.Reconcile([]byte(specJSON("a"))); err != nil {
		t.Fatal(err)
	}
	st, _ := rec.Status()
	// Content differs from the adopted file only if specJSON matches it
	// exactly — it does, so this was a pure no-op.
	if st.Reconciles != 0 {
		t.Fatalf("no-op counted as a reconcile: %+v", st)
	}

	if err := rec.Fail(errSentinel); err == nil {
		t.Fatal("Fail returned nil")
	}
	// Same content again: lastErr forces a retry despite the unchanged
	// hash, and the retry heals the loop.
	if err := rec.Reconcile([]byte(specJSON("a"))); err != nil {
		t.Fatal(err)
	}
	st, _ = rec.Status()
	if st.Reconciles != 1 || st.LastError != "" {
		t.Fatalf("post-retry status wrong: %+v", st)
	}
}
