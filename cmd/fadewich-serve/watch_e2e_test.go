package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fadewich/internal/serve"
)

// replaceFile replaces the file at path in one rename, so no poll reads
// it half written.
func replaceFile(t *testing.T, path string, raw []byte) {
	t.Helper()
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// watchSpec is a spec of small two-sensor offices with the given names.
func watchSpec(t *testing.T, names ...string) []byte {
	t.Helper()
	spec := serve.Spec{Defaults: serve.OfficeSpec{Layout: "small", Sensors: 2}}
	for _, n := range names {
		spec.Offices = append(spec.Offices, serve.OfficeSpec{Name: n})
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestServeWatchEndToEnd runs the real daemon with -watch and sends it
// no signal and no reload request: a rewritten spec file must reach the
// fleet within a deadline, and an invalid one must be reported while
// the fleet keeps its offices. The poll re-reads the file every tick,
// so an unchanged invalid spec counts one reconcile error per poll.
func TestServeWatchEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemon binary; skipped in -short")
	}
	const deadline = 20 * time.Second

	dir := t.TempDir()
	serveBin := buildBinary(t, dir, "fadewich-serve", "fadewich/cmd/fadewich-serve")
	specPath := filepath.Join(dir, "fleet.json")
	writeSpec := func(raw []byte) { replaceFile(t, specPath, raw) }
	specOf := func(names ...string) []byte { return watchSpec(t, names...) }
	officeNames := func(st e2eFleetStatus) []string {
		var out []string
		for _, o := range st.Offices {
			out = append(out, o.Name)
		}
		return out
	}
	writeSpec(specOf("a", "b"))

	daemon := startProc(t, "fadewich-serve", "fadewich-serve: listening on ", serveBin,
		"-spec", specPath, "-listen", "127.0.0.1:0", "-watch", "50ms", "-parallel", "1")
	base := "http://" + daemon.addr(t)
	waitFor := func(what string, ok func(e2eFleetStatus) bool) e2eFleetStatus {
		t.Helper()
		for end := time.Now().Add(deadline); ; time.Sleep(20 * time.Millisecond) {
			st := getStatus(t, base)
			if ok(st) {
				return st
			}
			if time.Now().After(end) {
				t.Fatalf("-watch: %s not seen within %v; last status %+v\nstderr:\n%s", what, deadline, st, daemon.errOutput())
			}
		}
	}

	if st := getStatus(t, base); st.SpecGeneration != 1 || st.LiveOffices != 2 || st.ReconcileErrors != 0 {
		t.Fatalf("startup status %+v", st)
	}

	writeSpec(specOf("a", "b", "c"))
	st := waitFor("the added office", func(st e2eFleetStatus) bool { return st.LiveOffices == 3 })
	if st.SpecGeneration != 2 || st.GenerationLag != 0 || st.LastReconcileError != "" {
		t.Fatalf("after the rewrite: %+v", st)
	}
	if got := officeNames(st); len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("offices after the rewrite: %v", got)
	}

	writeSpec([]byte(`{broken`))
	st = waitFor("the invalid spec", func(st e2eFleetStatus) bool { return st.LastReconcileError != "" })
	if st.SpecGeneration != 3 || st.GenerationLag != 1 || st.LiveOffices != 3 || st.DesiredOffices != 3 {
		t.Fatalf("after the invalid spec: %+v", st)
	}
	waitFor("a second error for the unchanged invalid spec", func(st e2eFleetStatus) bool {
		return st.ReconcileErrors >= 2 && st.SpecGeneration == 3 && st.LiveOffices == 3
	})

	daemon.term(t, 30*time.Second)
}

// TestCoordinatorWatchEndToEnd runs the real coordinator with -watch:
// polls of an unchanged spec keep fadewich_coord_generation at 1, and a
// spec file that gains an office reaches the assignments within a
// deadline, as generation 2.
func TestCoordinatorWatchEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemon binary; skipped in -short")
	}
	const deadline = 20 * time.Second

	dir := t.TempDir()
	serveBin := buildBinary(t, dir, "fadewich-serve", "fadewich/cmd/fadewich-serve")
	specPath := filepath.Join(dir, "fleet.json")
	replaceFile(t, specPath, watchSpec(t, "a", "b"))
	coord := startProc(t, "coordinator", "fadewich-serve: listening on ", serveBin,
		"-mode", "coordinator", "-spec", specPath, "-workers", "w1,w2", "-listen", "127.0.0.1:0", "-watch", "20ms")
	base := "http://" + coord.addr(t)

	time.Sleep(300 * time.Millisecond) // about 15 polls of the unchanged spec
	if m := scrapeMetrics(t, base); m["fadewich_coord_generation"] != 1 || m["fadewich_coord_reloads_total"] != 1 {
		t.Fatalf("unchanged spec: generation %v, reloads %v; want 1 and 1\nstderr:\n%s",
			m["fadewich_coord_generation"], m["fadewich_coord_reloads_total"], coord.errOutput())
	}

	replaceFile(t, specPath, watchSpec(t, "a", "b", "c"))
	for end := time.Now().Add(deadline); ; time.Sleep(20 * time.Millisecond) {
		m := scrapeMetrics(t, base)
		if m["fadewich_coord_generation"] == 2 && m["fadewich_coord_offices"] == 3 {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("-watch: the added office not seen within %v; generation %v, offices %v\nstderr:\n%s",
				deadline, m["fadewich_coord_generation"], m["fadewich_coord_offices"], coord.errOutput())
		}
	}
	coord.term(t, 30*time.Second)
}
