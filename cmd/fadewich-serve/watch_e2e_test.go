package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fadewich/internal/serve"
)

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
	// writeSpec replaces the spec file in one rename, so no poll reads
	// it half written.
	writeSpec := func(raw []byte) {
		t.Helper()
		tmp := specPath + ".tmp"
		if err := os.WriteFile(tmp, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, specPath); err != nil {
			t.Fatal(err)
		}
	}
	specOf := func(names ...string) []byte {
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
