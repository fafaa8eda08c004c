package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fadewich/internal/serve"
)

// writeSpec marshals a fleet spec of n paper offices o00..o(n−1) to a
// temp file and returns its path.
func writeSpec(t *testing.T, dir string, n int, mutate func(*serve.Spec)) string {
	t.Helper()
	spec := serve.Spec{
		Defaults: serve.OfficeSpec{Layout: "paper", Sensors: 4, MinTrainingSamples: 3},
	}
	for i := 0; i < n; i++ {
		spec.Offices = append(spec.Offices, serve.OfficeSpec{Name: officeName(i)})
	}
	if mutate != nil {
		mutate(&spec)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func officeName(i int) string {
	return string([]byte{'o', '0' + byte(i/10), '0' + byte(i%10)})
}

// TestCoordinatorInitialAssignment: gids assign 0..n−1 in spec order
// (matching the reference fleet's IDs), placement follows the ring, and
// the per-worker shards partition the spec.
func TestCoordinatorInitialAssignment(t *testing.T) {
	path := writeSpec(t, t.TempDir(), 12, nil)
	c, err := NewCoordinator(CoordinatorConfig{SpecPath: path, Workers: []string{"w1", "w2"}})
	if err != nil {
		t.Fatal(err)
	}
	as := c.Assignments()
	if as.Generation != 1 || as.GIDsIssued != 12 {
		t.Fatalf("generation %d gids %d, want 1 and 12", as.Generation, as.GIDsIssued)
	}
	ring, err := NewRing([]string{"w1", "w2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range as.Offices {
		if o.GID != i {
			t.Errorf("office %s gid %d, want %d (spec order)", o.Name, o.GID, i)
		}
		if want := ring.Assign(o.Name); o.Worker != want {
			t.Errorf("office %s on %s, ring says %s", o.Name, o.Worker, want)
		}
	}
	if len(as.Workers) != 2 || as.Workers[0].Source != 1 || as.Workers[1].Source != 2 {
		t.Fatalf("worker sources %+v, want w1=1 w2=2", as.Workers)
	}
	total := 0
	for _, w := range as.Workers {
		ss, err := c.Shard(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if ss.Source != w.Source || ss.Offices != len(w.Offices) {
			t.Fatalf("shard %s: %+v vs assignment row %+v", w.Name, ss, w)
		}
		sub, err := serve.ParseSpec(ss.Spec)
		if err != nil {
			t.Fatalf("shard %s sub-spec does not parse: %v", w.Name, err)
		}
		resolved, err := sub.Resolve()
		if err != nil {
			t.Fatalf("shard %s sub-spec does not resolve: %v", w.Name, err)
		}
		for _, ro := range resolved {
			if ro.GID < 0 {
				t.Fatalf("shard %s office %s missing gid", w.Name, ro.Name)
			}
		}
		total += len(resolved)
	}
	if total != 12 {
		t.Fatalf("shards hold %d offices, spec has 12", total)
	}
}

// TestCoordinatorJoinFreshGIDs: adding a worker moves only the offices
// the ring hands it, and exactly the moved offices draw fresh gids, in
// spec order — the mirror of the remove+add sequence the reference
// fleet applies.
func TestCoordinatorJoinFreshGIDs(t *testing.T) {
	path := writeSpec(t, t.TempDir(), 12, nil)
	c, err := NewCoordinator(CoordinatorConfig{SpecPath: path, Workers: []string{"w1", "w2"}})
	if err != nil {
		t.Fatal(err)
	}
	before := map[string]OfficeAssignment{}
	for _, o := range c.Assignments().Offices {
		before[o.Name] = o
	}
	if err := c.SetWorkers([]string{"w1", "w2", "w3"}); err != nil {
		t.Fatal(err)
	}
	as := c.Assignments()
	if as.Generation != 2 {
		t.Fatalf("generation %d after join, want 2", as.Generation)
	}
	nextFresh := 12
	movedAny := false
	for _, o := range as.Offices { // spec order
		prev := before[o.Name]
		if o.Worker == prev.Worker {
			if o.GID != prev.GID {
				t.Errorf("office %s did not move but gid changed %d→%d", o.Name, prev.GID, o.GID)
			}
			continue
		}
		movedAny = true
		if o.Worker != "w3" {
			t.Errorf("office %s moved %s→%s; only moves onto the joiner are allowed", o.Name, prev.Worker, o.Worker)
		}
		if o.GID != nextFresh {
			t.Errorf("moved office %s gid %d, want fresh gid %d (spec order)", o.Name, o.GID, nextFresh)
		}
		nextFresh++
	}
	if !movedAny {
		t.Fatal("no office moved to the joining worker")
	}
	// w3's source is fresh, never a reused one.
	if as.Workers[2].Name != "w3" || as.Workers[2].Source != 3 {
		t.Fatalf("joiner row %+v, want w3 with source 3", as.Workers[2])
	}
}

// TestCoordinatorConfigChangeFreshGID: a config rollout (not a move)
// also draws a fresh gid — the worker restarts the office under a new
// local ID, and the reference fleet does the same.
func TestCoordinatorConfigChangeFreshGID(t *testing.T) {
	dir := t.TempDir()
	path := writeSpec(t, dir, 6, nil)
	c, err := NewCoordinator(CoordinatorConfig{SpecPath: path, Workers: []string{"w1", "w2"}})
	if err != nil {
		t.Fatal(err)
	}
	before := map[string]OfficeAssignment{}
	for _, o := range c.Assignments().Offices {
		before[o.Name] = o
	}
	writeSpec(t, dir, 6, func(s *serve.Spec) {
		s.Offices[2].MinTrainingSamples = 5 // o02 rolls out a new config
	})
	if err := c.Reload(); err != nil {
		t.Fatal(err)
	}
	for _, o := range c.Assignments().Offices {
		prev := before[o.Name]
		if o.Worker != prev.Worker {
			t.Errorf("office %s moved on a pure config reload", o.Name)
		}
		if o.Name == "o02" {
			if o.GID != 6 {
				t.Errorf("o02 gid %d after config change, want fresh gid 6", o.GID)
			}
		} else if o.GID != prev.GID {
			t.Errorf("office %s gid changed %d→%d without a config change", o.Name, prev.GID, o.GID)
		}
	}
}

// TestCoordinatorRejectsGIDInSpec: the coordinator owns gid assignment;
// a spec arriving with gids already stamped is operator error.
func TestCoordinatorRejectsGIDInSpec(t *testing.T) {
	path := writeSpec(t, t.TempDir(), 3, func(s *serve.Spec) {
		gid := 7
		s.Offices[1].GID = &gid
	})
	if _, err := NewCoordinator(CoordinatorConfig{SpecPath: path, Workers: []string{"w1"}}); err == nil {
		t.Fatal("spec with pre-stamped gid accepted")
	}
}

// TestCoordinatorHTTP drives the whole HTTP surface: shard fetch,
// worker set update, reload, assignments and metrics.
func TestCoordinatorHTTP(t *testing.T) {
	dir := t.TempDir()
	path := writeSpec(t, dir, 12, nil)
	c, err := NewCoordinator(CoordinatorConfig{SpecPath: path, Workers: []string{"w1", "w2"}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c)
	defer srv.Close()

	ss, err := FetchShard(srv.Client(), srv.URL, "w1")
	if err != nil {
		t.Fatal(err)
	}
	if ss.Worker != "w1" || ss.Source != 1 || ss.Generation != 1 {
		t.Fatalf("shard %+v", ss)
	}
	if _, err := FetchShard(srv.Client(), srv.URL, "nope"); err == nil {
		t.Fatal("unknown worker shard fetch succeeded")
	}

	req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/workers",
		bytes.NewReader([]byte(`{"workers":["w1","w2","w3"]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var as Assignments
	if err := json.NewDecoder(resp.Body).Decode(&as); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(as.Workers) != 3 || as.Generation != 2 {
		t.Fatalf("PUT /v1/workers: status %d assignments %+v", resp.StatusCode, as)
	}

	resp, err = srv.Client().Post(srv.URL+"/v1/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/reload: status %d", resp.StatusCode)
	}

	resp, err = srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{"fadewich_coord_generation", "fadewich_coord_workers", "fadewich_coord_offices", "fadewich_coord_gids_issued", "fadewich_coord_reloads_total"} {
		if !bytes.Contains(body, []byte(family)) {
			t.Errorf("/metrics missing %s", family)
		}
	}
}

// TestCoordinatorWorkersBodyLimit checks that PUT /v1/workers reads at
// most maxWorkersBody bytes: a normal body updates the worker set, an
// oversized one is refused with 413 and changes nothing.
func TestCoordinatorWorkersBodyLimit(t *testing.T) {
	dir := t.TempDir()
	path := writeSpec(t, dir, 4, nil)
	c, err := NewCoordinator(CoordinatorConfig{SpecPath: path, Workers: []string{"w1"}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c)
	defer srv.Close()

	put := func(body string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/workers", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	huge := `{"workers":["` + strings.Repeat("w", maxWorkersBody) + `"]}`
	if got := put(huge); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want %d", got, http.StatusRequestEntityTooLarge)
	}
	if as := c.Assignments(); as.Generation != 1 || len(as.Workers) != 1 {
		t.Fatalf("oversized body changed the assignments: %+v", as)
	}
	if got := put(`{"workers":["w1","w2"]}`); got != http.StatusOK {
		t.Fatalf("normal body: status %d, want %d", got, http.StatusOK)
	}
	if as := c.Assignments(); as.Generation != 2 || len(as.Workers) != 2 {
		t.Fatalf("normal body: assignments %+v", as)
	}
}
